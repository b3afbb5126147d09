//! Decoding untrusted bytes must stay bounded: a length prefix may not
//! reserve more memory than the remaining input could back, and no input
//! — however mangled — may panic a decoder.
//!
//! This binary installs a counting global allocator that records the
//! largest single allocation (or reallocation) a thread makes while a
//! measurement is armed. It checks:
//!
//! * a crafted `Request::Submit` whose op count claims 2²⁰ elements;
//! * a fixed-seed mutation loop (bit flips, truncations, inflated length
//!   prefixes, tag swaps) over every valid `Request`/`Response` in
//!   `tests/golden/wire.txt`, each case decoded as both types.

use proto::{Request, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wire::{Decode, Encode};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations during thread teardown find no slot.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping only touches const-initialized thread-local
// `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f` and return its result with the largest single allocation it
/// made on this thread.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PEAK.with(|p| p.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, PEAK.with(Cell::get))
}

/// Decode `bytes` as `T` under the allocation counter. A value that
/// decodes must survive an encode/decode round trip unchanged.
fn decode_bounded<T>(bytes: &[u8]) -> Result<usize, String>
where
    T: Encode + Decode + PartialEq + std::fmt::Debug,
{
    let (res, peak) =
        peak_during(|| catch_unwind(AssertUnwindSafe(|| wire::from_slice::<T>(bytes))));
    match res {
        Err(_) => Err("decoder panicked".into()),
        Ok(Err(_)) => Ok(peak),
        Ok(Ok(v)) => match wire::from_slice::<T>(&wire::to_vec(&v)) {
            Ok(back) if back == v => Ok(peak),
            other => Err(format!("decoded {v:?} but its re-encoding decodes to {other:?}")),
        },
    }
}

#[test]
fn forged_submit_count_reserves_no_more_than_the_payload() {
    // `Request::Submit` (tag 3) claiming 2²⁰ ops, followed by 1 MiB of
    // bytes that cannot start an op (an unterminated varint): whatever
    // the count says, the decoder may only reserve what the remaining
    // input could back.
    let mut payload = vec![3u8];
    wire::put_u64(&mut payload, 1 << 20);
    payload.resize(payload.len() + (1 << 20), 0xff);
    let (res, peak) = peak_during(|| wire::from_slice::<Request>(&payload));
    assert!(res.is_err(), "the filler is not a valid op");
    assert!(
        peak <= 2 * payload.len(),
        "decoding a {}-byte payload allocated {peak} bytes at once",
        payload.len()
    );
}

/// SplitMix64: a fixed-seed generator, so every run replays the same
/// cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Every valid `Request`/`Response` the golden file pins.
fn golden_messages() -> Vec<(String, Vec<u8>)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire.txt");
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("request/") || l.starts_with("response/"))
        .map(|l| {
            let (name, hex) = l.split_once(' ').unwrap();
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            (name.to_string(), bytes)
        })
        .collect()
}

/// One mutation of `src`, chosen by `rng`.
fn mutate(rng: &mut Rng, src: &[u8]) -> Vec<u8> {
    let mut m = src.to_vec();
    match rng.below(4) {
        // Flip one to three bits.
        0 => {
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(m.len());
                m[i] ^= 1 << rng.below(8);
            }
        }
        // Truncate.
        1 => m.truncate(rng.below(m.len())),
        // Replace one byte with a large varint: wherever that byte was a
        // length prefix or element count, it now claims up to 2⁴⁰.
        2 => {
            let i = rng.below(m.len());
            let mut big = Vec::new();
            wire::put_u64(&mut big, 1 << (7 + rng.below(34)));
            m.splice(i..=i, big);
        }
        // Swap a tag: the leading message tag, or any byte, to a small
        // value some enum of the format uses.
        _ => {
            let i = if rng.below(2) == 0 { 0 } else { rng.below(m.len()) };
            m[i] = rng.below(12) as u8;
        }
    }
    m
}

#[test]
fn mutated_messages_decode_to_typed_errors_within_bounds() {
    // Small inputs legitimately allocate more than twice their length:
    // a `Vec`'s first growth step holds four elements, and an op is a few
    // bytes on the wire but 240 in memory. What must never happen is an
    // allocation sized by a forged count rather than by the input.
    const FLOOR: usize = 8 << 10;
    let corpus = golden_messages();
    assert!(corpus.len() >= 30, "golden corpus lost its messages");
    let mut rng = Rng(0x5eed_c0de);
    let mut decoded = 0usize;
    for case in 0..20_000 {
        let (name, src) = &corpus[rng.below(corpus.len())];
        let m = mutate(&mut rng, src);
        let bound = FLOOR.max(2 * m.len());
        for (ty, res) in [
            ("Request", decode_bounded::<Request>(&m)),
            ("Response", decode_bounded::<Response>(&m)),
        ] {
            match res {
                Ok(peak) => assert!(
                    peak <= bound,
                    "case {case} (from {name}) as {ty}: allocated {peak} bytes for {} input bytes",
                    m.len()
                ),
                Err(e) => panic!("case {case} (from {name}) as {ty}: {e}"),
            }
        }
        decoded += usize::from(wire::from_slice::<Request>(&m).is_ok());
    }
    // The loop must also reach past the first byte: some mutants stay valid.
    assert!(decoded > 0);
}
