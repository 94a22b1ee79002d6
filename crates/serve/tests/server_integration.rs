//! End-to-end job-server suite, run against an in-process server on an
//! ephemeral port. `SGR_SERVE_TEST_WORKERS` sets the worker-pool size
//! (the CI matrix runs 1 and 4; default 2).
//!
//! The three pillars:
//! 1. **Determinism over the wire** — concurrently submitted jobs fetch
//!    back byte-identical to the same restoration run locally through
//!    the `sgr restore` code path (edge list → seeded RNG → crawl →
//!    restore), at any worker count.
//! 2. **Crash-safe adoption** — a job killed mid-rewire (fault-injected
//!    simulated crash) is re-adopted by a fresh server on the same state
//!    root and finishes bitwise-identical to the never-killed run.
//! 3. **Hostile input** — malformed, truncated, oversize, and
//!    unknown-type frames produce typed errors without taking down the
//!    server or other clients' jobs; a job whose hidden graph cannot be
//!    crawled fails on its own and the worker runs the next job.

use std::io::{Cursor, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sgr_core::RestoreConfig;
use sgr_graph::io::{read_edge_list, write_edge_list};
use sgr_graph::snapshot::{encode_csr, encode_section, KIND_CSR_GRAPH};
use sgr_sample::{CrawlSpec, WalkKind};
use sgr_serve::protocol::{
    decode_error, read_frame, write_frame, FRAME_HEADER_LEN, FRAME_MAGIC, REQ_STATUS, REQ_SUBMIT,
    RESP_ERROR, RESP_STATUS,
};
use sgr_serve::{Client, ClientError, JobState, ServeConfig, SubmitRequest};
use sgr_util::Xoshiro256pp;

fn workers() -> usize {
    match std::env::var("SGR_SERVE_TEST_WORKERS") {
        Ok(v) => v
            .parse()
            .expect("SGR_SERVE_TEST_WORKERS must be an integer"),
        Err(_) => 2,
    }
}

fn state_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgr-serve-it-{}-{}", std::process::id(), tag));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn serve_cfg(dir: PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: workers(),
        dir,
        ..ServeConfig::default()
    }
}

/// The hidden graph under test, as the edge-list bytes a client submits.
fn graph_bytes() -> Vec<u8> {
    let mut rng = Xoshiro256pp::seed_from_u64(31);
    let g = sgr_gen::holme_kim(300, 4, 0.5, &mut rng).unwrap();
    let mut bytes = Vec::new();
    write_edge_list(&g, &mut bytes).unwrap();
    bytes
}

fn submit_req(seed: u64, threads: u64, tenant: &str, abort_after: u64) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.into(),
        walk_code: WalkKind::RandomWalk.code(),
        fraction: 0.1,
        snowball_k: 50,
        burn_prob: 0.7,
        rewiring_coefficient: 10.0,
        rewire: true,
        threads,
        seed,
        checkpoint_every: 500,
        abort_after,
        edges: graph_bytes(),
    }
}

/// What `sgr restore` would produce locally from the same submission —
/// the exact CLI code path (edge list → seeded RNG → `run_crawl` →
/// restore), encoded as the snapshot section `sgr fetch` returns.
/// The job's `threads` field is ignored, so the local run uses 1.
fn local_restore_bytes(req: &SubmitRequest) -> Vec<u8> {
    let (g, _) = read_edge_list(Cursor::new(&req.edges[..])).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(req.seed);
    let spec = CrawlSpec {
        walk: WalkKind::from_code(req.walk_code).unwrap(),
        fraction: req.fraction,
        snowball_k: req.snowball_k as usize,
        burn_prob: req.burn_prob,
    };
    let outcome = sgr_sample::run_crawl(&g, &spec, &mut rng).unwrap();
    let cfg = RestoreConfig {
        rewiring_coefficient: req.rewiring_coefficient,
        rewire: req.rewire,
        threads: 1,
    };
    let restored = sgr_core::restore(&outcome.crawl, &cfg, &mut rng).unwrap();
    encode_section(KIND_CSR_GRAPH, &encode_csr(&restored.snapshot))
}

/// Polls until the job reaches `want` (panicking on an unexpected
/// terminal state or timeout).
fn wait_for(client: &mut Client, job: u64, want: JobState) -> sgr_serve::JobStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s = client.status(job).unwrap();
        if s.state == want {
            return s;
        }
        let terminal = matches!(s.state, JobState::Completed | JobState::Failed);
        assert!(
            !(terminal || Instant::now() > deadline),
            "job {job}: wanted {:?}, got {:?} ({})",
            want,
            s.state,
            s.message
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Pillar 1: two tenants submit concurrently; each fetched snapshot is
/// byte-identical to the local `sgr restore`-path run, including a job
/// that sends a `threads` value the server ignores.
#[test]
fn concurrent_jobs_match_local_restore_bytes() {
    let root = state_root("concurrent");
    let handle = sgr_serve::start(serve_cfg(root.clone())).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let req_a = submit_req(7, 1, "tenant-a", 0);
    let req_b = submit_req(8, 2, "tenant-b", 0);
    let id_a = client.submit(&req_a).unwrap();
    let id_b = client.submit(&req_b).unwrap();
    assert_ne!(id_a, id_b);

    let done_a = wait_for(&mut client, id_a, JobState::Completed);
    let done_b = wait_for(&mut client, id_b, JobState::Completed);
    assert!(done_a.nodes > 0 && done_a.edges > 0);
    assert!(done_a.attempts_total > 0);
    assert_eq!(done_a.attempts_done, done_a.attempts_total);
    assert!(done_b.checkpoints > 0);

    let fetched_a = client.fetch(id_a).unwrap();
    let fetched_b = client.fetch(id_b).unwrap();
    assert_eq!(fetched_a, local_restore_bytes(&req_a));
    // Job B sent threads = 2 over the wire; the field has no effect.
    assert_eq!(fetched_b, local_restore_bytes(&req_b));
    assert_ne!(fetched_a, fetched_b, "different seeds must differ");

    // The job list sees both tenants.
    let list = client.list().unwrap();
    assert_eq!(list.len(), 2);

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// Pillar 2: a fault-injected abort kills the job mid-rewire; a fresh
/// server on the same root adopts it from the durable checkpoint and the
/// fetched result is bitwise-identical to the never-interrupted run.
#[test]
fn interrupted_job_is_adopted_and_finishes_identically() {
    let root = state_root("adopt");
    let handle = sgr_serve::start(serve_cfg(root.clone())).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // 3 stage checkpoints + 2 mid-rewire ones, then the simulated crash:
    // the job dies inside the rewiring loop with durable progress.
    let req = submit_req(7, 1, "tenant-a", 5);
    let id = client.submit(&req).unwrap();
    let s = wait_for(&mut client, id, JobState::Interrupted);
    assert!(s.message.contains("interrupted"), "{}", s.message);
    assert!(s.checkpoints >= 5);
    assert!(
        s.attempts_done > 0 && s.attempts_done < s.attempts_total,
        "crash must land mid-rewire ({}/{})",
        s.attempts_done,
        s.attempts_total
    );
    match client.fetch(id) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, sgr_serve::protocol::ERR_NOT_FINISHED)
        }
        other => panic!("fetch of interrupted job: {other:?}"),
    }
    client.shutdown_server().unwrap();
    handle.join();

    // Restart on the same root: the job is re-adopted (abort_after is
    // not reapplied) and runs to completion.
    let handle = sgr_serve::start(serve_cfg(root.clone())).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let done = wait_for(&mut client, id, JobState::Completed);
    assert_eq!(done.attempts_done, done.attempts_total);
    let fetched = client.fetch(id).unwrap();
    assert_eq!(fetched, local_restore_bytes(&req));

    // Fresh submissions continue the id sequence past adopted jobs.
    let id2 = client.submit(&submit_req(9, 1, "tenant-b", 0)).unwrap();
    assert!(id2 > id);
    wait_for(&mut client, id2, JobState::Completed);

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// Pillar 3: hostile frames get typed errors; the server and the jobs it
/// is running survive.
#[test]
fn hostile_frames_get_typed_errors_without_collateral_damage() {
    let root = state_root("hostile");
    let cfg = ServeConfig {
        max_frame_bytes: 1 << 20,
        ..serve_cfg(root.clone())
    };
    let max = cfg.max_frame_bytes;
    let handle = sgr_serve::start(cfg).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();

    // A real job rides along; it must be unaffected by everything below.
    let req = submit_req(7, 1, "bystander", 0);
    let id = client.submit(&req).unwrap();

    // Bad magic: typed error, then the connection closes.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&[0xde; FRAME_HEADER_LEN]).unwrap();
        raw.flush().unwrap();
        let (t, p) = read_frame(&mut raw, max).unwrap().unwrap();
        assert_eq!(t, RESP_ERROR);
        let (code, msg) = decode_error(&p).unwrap();
        assert_eq!(code, sgr_serve::protocol::ERR_PROTOCOL);
        assert!(msg.contains("magic"), "{msg}");
        assert!(read_frame(&mut raw, max).unwrap().is_none(), "must close");
    }

    // Oversize declared length: typed error naming the cap, connection
    // closes, and the server never allocates the declared amount.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[..4].copy_from_slice(&FRAME_MAGIC);
        header[4..8].copy_from_slice(&REQ_STATUS.to_le_bytes());
        header[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        raw.write_all(&header).unwrap();
        raw.flush().unwrap();
        let (t, p) = read_frame(&mut raw, max).unwrap().unwrap();
        assert_eq!(t, RESP_ERROR);
        let (code, msg) = decode_error(&p).unwrap();
        assert_eq!(code, sgr_serve::protocol::ERR_PROTOCOL);
        assert!(msg.contains("exceeds the cap"), "{msg}");
        assert!(read_frame(&mut raw, max).unwrap().is_none(), "must close");
    }

    // Truncated frame (header promises more than the peer sends): the
    // server drops the connection without panicking.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, REQ_STATUS, &[0u8; 64]).unwrap();
        raw.write_all(&buf[..FRAME_HEADER_LEN + 10]).unwrap();
        raw.flush().unwrap();
        drop(raw);
    }

    // Unknown frame type: typed error, but framing is intact so the
    // *same connection* keeps working.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, 999, b"").unwrap();
        let (t, p) = read_frame(&mut raw, max).unwrap().unwrap();
        assert_eq!(t, RESP_ERROR);
        let (code, msg) = decode_error(&p).unwrap();
        assert_eq!(code, sgr_serve::protocol::ERR_PROTOCOL);
        assert!(msg.contains("unknown frame type 999"), "{msg}");
        // Still alive: a valid status request on the same stream.
        write_frame(
            &mut raw,
            REQ_STATUS,
            &sgr_serve::protocol::encode_job_id(id),
        )
        .unwrap();
        let (t, _) = read_frame(&mut raw, max).unwrap().unwrap();
        assert_eq!(t, RESP_STATUS);
    }

    // Garbage submit payload: ERR_MALFORMED, connection stays open.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, REQ_SUBMIT, b"not a submit payload").unwrap();
        let (t, p) = read_frame(&mut raw, max).unwrap().unwrap();
        assert_eq!(t, RESP_ERROR);
        let (code, _) = decode_error(&p).unwrap();
        assert_eq!(code, sgr_serve::protocol::ERR_MALFORMED);
        write_frame(
            &mut raw,
            REQ_STATUS,
            &sgr_serve::protocol::encode_job_id(id),
        )
        .unwrap();
        assert_eq!(read_frame(&mut raw, max).unwrap().unwrap().0, RESP_STATUS);
    }

    // Typed application errors: unknown job, fetch before completion.
    match client.status(424242) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, sgr_serve::protocol::ERR_UNKNOWN_JOB)
        }
        other => panic!("status of unknown job: {other:?}"),
    }
    match client.fetch(424242) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, sgr_serve::protocol::ERR_UNKNOWN_JOB)
        }
        other => panic!("fetch of unknown job: {other:?}"),
    }

    // The bystander job is untouched by all of the above.
    wait_for(&mut client, id, JobState::Completed);
    assert_eq!(client.fetch(id).unwrap(), local_restore_bytes(&req));

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// Admission control: a job whose memory estimate exceeds the budget is
/// rejected with a typed error at submit time, and the server keeps
/// serving.
#[test]
fn admission_rejects_jobs_past_the_memory_budget() {
    let root = state_root("admission");
    let cfg = ServeConfig {
        memory_budget: 10_000,
        ..serve_cfg(root.clone())
    };
    let handle = sgr_serve::start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    match client.submit(&submit_req(7, 1, "t", 0)) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, sgr_serve::protocol::ERR_REJECTED);
            assert!(message.contains("memory budget"), "{message}");
        }
        other => panic!("over-budget submit: {other:?}"),
    }
    // Rejected submissions leave no job behind.
    assert!(client.list().unwrap().is_empty());

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// A hidden graph with no nodes fails its job with a typed message on a
/// single worker, and that worker goes on to complete the next job.
#[test]
fn empty_graph_job_fails_and_the_next_job_completes() {
    let root = state_root("empty-graph");
    let cfg = ServeConfig {
        workers: 1,
        ..serve_cfg(root.clone())
    };
    let handle = sgr_serve::start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let empty = SubmitRequest {
        edges: Vec::new(),
        ..submit_req(7, 1, "t", 0)
    };
    let bad = client.submit(&empty).unwrap();
    let req = submit_req(8, 1, "t", 0);
    let good = client.submit(&req).unwrap();

    let failed = wait_for(&mut client, bad, JobState::Failed);
    assert!(
        failed.message.contains("empty hidden graph"),
        "{}",
        failed.message
    );
    wait_for(&mut client, good, JobState::Completed);
    assert_eq!(client.fetch(good).unwrap(), local_restore_bytes(&req));

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// Small request/response round trips on one connection finish in well
/// under a millisecond each on loopback. When a frame was split into two
/// writes on a socket without `TCP_NODELAY`, each request or response
/// waited ~40 ms for a delayed ACK: 100 `list` calls took 4.4 s and 100
/// failing `status` calls 8.8 s. The 1 s bound leaves room for a slow
/// host.
#[test]
fn round_trips_do_not_wait_on_delayed_acks() {
    let root = state_root("round-trips");
    let cfg = ServeConfig {
        workers: 1,
        ..serve_cfg(root.clone())
    };
    let handle = sgr_serve::start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let start = Instant::now();
    for _ in 0..100 {
        assert!(client.list().unwrap().is_empty());
    }
    let lists = start.elapsed();

    let start = Instant::now();
    for _ in 0..100 {
        match client.status(424242) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, sgr_serve::protocol::ERR_UNKNOWN_JOB)
            }
            other => panic!("status of unknown job: {other:?}"),
        }
    }
    let statuses = start.elapsed();

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
    assert!(lists < Duration::from_secs(1), "100 lists took {lists:?}");
    assert!(
        statuses < Duration::from_secs(1),
        "100 unknown-job statuses took {statuses:?}"
    );
}
