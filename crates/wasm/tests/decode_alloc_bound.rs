//! Allocation bound for the binary decoder: a hostile module may declare
//! any element count in a type-section header, but the decoder must never
//! reserve more memory than the input could describe.
//!
//! A counting global allocator records the largest single allocation made
//! while decoding each hostile header. This file holds exactly one test so
//! no other test thread allocates during the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use roadrunner_wasm::decode::decode;
use roadrunner_wasm::encode::PREAMBLE;

/// Largest single allocation seen since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is the one `System` relies on. The
// default `realloc` allocates through `alloc`, so growth is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` comes from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` via `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Every hostile module below is a few dozen bytes, so a larger
/// reservation was sized by a declared count rather than by the input.
const BOUND: usize = 4096;

const U32_MAX: [u8; 5] = [0xff, 0xff, 0xff, 0xff, 0x0f];

/// A module whose type section holds one functype: `0x60` then `body`.
fn type_section(body: &[&[u8]]) -> Vec<u8> {
    let mut section = vec![0x01, 0x60];
    section.extend(body.concat());
    let mut module = PREAMBLE.to_vec();
    let size = u8::try_from(section.len()).expect("hostile sections are short");
    module.extend([0x01, size]);
    module.extend(section);
    module
}

#[test]
fn hostile_type_section_counts_allocate_in_proportion_to_the_input() {
    let hostile = [
        // 2^32 - 1 params, none present: the 17-byte module.
        type_section(&[&U32_MAX]),
        // 2^32 - 1 params, three valid ones, then truncation.
        type_section(&[&U32_MAX, &[0x7f, 0x7e, 0x7d]]),
        // No params, then 2^32 - 1 results.
        type_section(&[&[0x00], &U32_MAX]),
        // Two params, then 2^32 - 1 results and one valid result.
        type_section(&[&[0x02, 0x7f, 0x7f], &U32_MAX, &[0x7f]]),
    ];
    for module in &hostile {
        PEAK.store(0, Ordering::Relaxed);
        let result = decode(module);
        let peak = PEAK.load(Ordering::Relaxed);
        assert!(result.is_err(), "{module:02x?} must be rejected");
        assert!(
            peak <= BOUND,
            "decoding {} hostile bytes made a {peak}-byte allocation (bound {BOUND})",
            module.len()
        );
    }
}
