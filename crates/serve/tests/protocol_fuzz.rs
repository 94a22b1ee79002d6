//! Seeded mutation fuzzer for the wire-protocol decoders.
//!
//! Valid encodings of every frame and payload type are mutated (byte
//! flips, truncations, extensions, length-field overwrites) and fed to
//! `read_frame` and to every payload decoder. The invariant is the
//! service's: a decoder returns `Ok` or a typed `Err`, never panics, and
//! never allocates much more than its input. `read_frame` never returns a
//! payload longer than its cap and never allocates past it.
//!
//! The seed and the case budget are fixed, so a run is reproducible, and
//! a failure prints the input that caused it. Crashers found this way live
//! on below as named regression cases.

use std::io::{self, Cursor, Read};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use sgr_serve::protocol::{
    decode_error, decode_job_id, encode_error, encode_job_id, read_frame, write_frame,
    ERR_UNKNOWN_JOB, REQ_FETCH, REQ_LIST, REQ_STATUS, REQ_SUBMIT, RESP_ERROR, RESP_JOBS,
    RESP_STATUS,
};
use sgr_serve::{JobState, JobStatus, SubmitRequest};
use sgr_util::alloc::{chunk_size, live_model_bytes, peak_model_bytes, reset_peak, TrackingAlloc};
use sgr_util::Xoshiro256pp;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// The allocation peak is process-wide, so tests that measure it take
/// turns.
static MEASURE: Mutex<()> = Mutex::new(());

const SEED: u64 = 0x5347_5257_f022;
const CASES: usize = 20_000;
/// `read_frame`'s cap in this suite; small, so that mutated length
/// fields land on both sides of it.
const MAX_FRAME: u64 = 256;

/// A payload decoder may allocate its decoded fields (at most a few
/// times the input, counting per-allocation overhead) plus an error
/// message.
fn payload_budget(input_len: usize) -> u64 {
    4 * input_len as u64 + 1024
}

fn status(id: u64, tenant: &str, state: JobState, stage: &str, message: &str) -> JobStatus {
    JobStatus {
        id,
        tenant: tenant.into(),
        state,
        stage: stage.into(),
        attempts_done: 512,
        attempts_total: 65_000,
        checkpoints: 3,
        nodes: 2_000,
        edges: 7_900,
        message: message.into(),
    }
}

/// Valid encodings: payloads of every message type, and byte streams of
/// one or more frames.
fn corpus() -> Vec<Vec<u8>> {
    let submit = SubmitRequest {
        tenant: "acme".into(),
        walk_code: 1,
        fraction: 0.3,
        snowball_k: 50,
        burn_prob: 0.7,
        rewiring_coefficient: 25.0,
        rewire: true,
        threads: 1,
        seed: 42,
        checkpoint_every: 0,
        abort_after: 0,
        edges: b"0 1\n1 2\n2 0\n".to_vec(),
    };
    let statuses = [
        status(1, "", JobState::Queued, "", ""),
        status(2, "t", JobState::Running, "rewire", ""),
        status(3, "b", JobState::Failed, "estimate", "walk too short"),
    ];
    let payloads = vec![
        submit.encode(),
        SubmitRequest {
            tenant: String::new(),
            edges: Vec::new(),
            ..submit.clone()
        }
        .encode(),
        statuses[2].encode(),
        JobStatus::encode_list(&[]),
        JobStatus::encode_list(&statuses[..1]),
        JobStatus::encode_list(&statuses),
        encode_job_id(7),
        encode_error(ERR_UNKNOWN_JOB, "no job 7"),
    ];
    let frames = [
        (REQ_LIST, Vec::new()),
        (REQ_STATUS, encode_job_id(7)),
        (REQ_FETCH, encode_job_id(u64::MAX)),
        (REQ_SUBMIT, submit.encode()),
        (RESP_STATUS, statuses[1].encode()),
        (RESP_JOBS, JobStatus::encode_list(&statuses[..2])),
        (RESP_ERROR, encode_error(ERR_UNKNOWN_JOB, "no job 7")),
    ];
    // Each frame alone, and all of them as one stream.
    let mut stream = Vec::new();
    let mut out = payloads;
    for (t, p) in frames {
        let mut one = Vec::new();
        write_frame(&mut one, t, &p).unwrap();
        stream.extend_from_slice(&one);
        out.push(one);
    }
    out.push(stream);
    out
}

/// Applies one random mutation in place.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Xoshiro256pp) {
    let len = bytes.len();
    match rng.gen_range(4) {
        0 if len > 0 => {
            let at = rng.gen_range(len);
            bytes[at] ^= 1 + rng.gen_range(255) as u8;
        }
        1 if len > 0 => bytes.truncate(rng.gen_range(len)),
        3 if len >= 8 => {
            // Length and count fields sit at offsets 0 and 8 in most
            // encodings (the frame's payload length, a list's count, a
            // submission's tenant length); aim there a third of the time.
            let at = match rng.gen_range(3) {
                0 => [0, 8][rng.gen_range(2)].min(len - 8),
                _ => rng.gen_range(len - 7),
            };
            let value = match rng.gen_range(8) {
                0 => 0,
                1 => rng.gen_range(2 * len + 1) as u64,
                2 => len as u64,
                3 => (len - at) as u64,
                4 => MAX_FRAME + 1,
                5 => u64::from(u32::MAX),
                6 => [1 << 63, u64::MAX][rng.gen_range(2)],
                _ => rng.next_u64(),
            };
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        _ => {
            let extra = 1 + rng.gen_range(16);
            bytes.extend((0..extra).map(|_| rng.next_u32() as u8));
        }
    }
}

/// A reader that hands out at most `chunk` bytes per call and sometimes
/// reports `Interrupted`, the way a socket may.
struct Trickle<'a> {
    inner: Cursor<&'a [u8]>,
    chunk: usize,
    calls: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(5) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let n = buf.len().min(self.chunk);
        self.inner.read(&mut buf[..n])
    }
}

/// Runs `f`, which must not panic, and asserts that its peak allocation
/// stays within `budget`. The peak is process-wide, so the test harness's
/// other threads can add to one reading; the decoders are deterministic,
/// so an over-budget reading is taken twice more before it counts.
fn bounded<R>(what: &str, input: &[u8], budget: u64, f: impl Fn() -> R) -> R {
    let mut least = u64::MAX;
    for _ in 0..3 {
        let before = live_model_bytes();
        reset_peak();
        let Ok(r) = panic::catch_unwind(AssertUnwindSafe(&f)) else {
            panic!("{what} panicked on input {input:02x?}");
        };
        least = least.min(peak_model_bytes().saturating_sub(before));
        if least <= budget {
            return r;
        }
    }
    panic!(
        "{what} allocated {least} bytes, over its budget of {budget}, for a {}-byte input {input:02x?}",
        input.len()
    );
}

/// A payload decoder, reduced to whether it accepted its input.
type Decoder = fn(&[u8]) -> bool;

const PAYLOAD_DECODERS: [(&str, Decoder); 5] = [
    ("SubmitRequest::decode", |b| {
        SubmitRequest::decode(b).is_ok()
    }),
    ("JobStatus::decode", |b| JobStatus::decode(b).is_ok()),
    ("JobStatus::decode_list", |b| {
        JobStatus::decode_list(b).is_ok()
    }),
    ("decode_job_id", |b| decode_job_id(b).is_ok()),
    ("decode_error", |b| decode_error(b).is_ok()),
];

/// Feeds one input to `read_frame` and to every payload decoder and
/// checks the invariants; returns which of them accepted it, in that
/// order.
fn check(input: &[u8], chunk: usize) -> [bool; 6] {
    let frames = bounded("read_frame", input, chunk_size(MAX_FRAME as usize), || {
        let mut r = Trickle {
            inner: Cursor::new(input),
            chunk,
            calls: 0,
        };
        let mut frames = 0;
        // Every success consumes at least a header, so this ends.
        while let Ok(Some((_, payload))) = read_frame(&mut r, MAX_FRAME) {
            assert!(
                payload.len() as u64 <= MAX_FRAME,
                "read_frame returned {} bytes past its cap {MAX_FRAME} on {input:02x?}",
                payload.len()
            );
            frames += 1;
        }
        frames
    });
    let budget = payload_budget(input.len());
    let mut accepted = [frames > 0; 6];
    for ((name, decode), ok) in PAYLOAD_DECODERS.into_iter().zip(&mut accepted[1..]) {
        *ok = bounded(name, input, budget, || decode(input));
    }
    accepted
}

#[test]
fn decoders_return_typed_results_on_mutated_input() {
    let _turn = MEASURE.lock().unwrap_or_else(PoisonError::into_inner);
    let corpus = corpus();
    for input in &corpus {
        check(input, usize::MAX);
    }
    let mut rng = Xoshiro256pp::seed_from_u64(SEED);
    let mut accepted = [0usize; 6];
    for _ in 0..CASES {
        let mut input = corpus[rng.gen_range(corpus.len())].clone();
        for _ in 0..1 + rng.gen_range(4) {
            mutate(&mut input, &mut rng);
        }
        let ok = check(&input, 1 + rng.gen_range(24));
        for (n, ok) in accepted.iter_mut().zip(ok) {
            *n += usize::from(ok);
        }
    }
    // Mutants that every decoder rejects at its first field would test
    // little: each decoder must have accepted some and rejected some.
    let names = std::iter::once("read_frame").chain(PAYLOAD_DECODERS.map(|(name, _)| name));
    for (name, n) in names.zip(accepted) {
        assert!(0 < n && n < CASES, "{name} accepted {n} of {CASES} mutants");
    }
}

/// Found by the fuzzer: a `RESP_JOBS` count no larger than the payload
/// passed the old plausibility check, and the decoder then reserved room
/// for that many decoded statuses up front, over 100 bytes of `Vec` per
/// payload byte. A hostile server could make a client reserve tens of
/// gigabytes with one maximal frame.
#[test]
fn a_forged_job_count_reserves_no_more_than_the_payload_holds() {
    let _turn = MEASURE.lock().unwrap_or_else(PoisonError::into_inner);
    let mut bytes = JobStatus::encode_list(&[status(1, "t", JobState::Queued, "", "")]);
    bytes.resize(4096, 0);
    let count = bytes.len() as u64;
    bytes[..8].copy_from_slice(&count.to_le_bytes());
    let decoded = bounded(
        "JobStatus::decode_list",
        &bytes,
        payload_budget(bytes.len()),
        || JobStatus::decode_list(&bytes).is_ok(),
    );
    assert!(!decoded, "a forged count decoded");
}
