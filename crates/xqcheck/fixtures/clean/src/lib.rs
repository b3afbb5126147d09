//! Clean fixture: exercises every lint's pass path — a justified
//! `unsafe`, an audited atomic, schema-registered metrics (literal and
//! dynamic), and an explicitly allowed exception.

use std::sync::atomic::{AtomicBool, Ordering};

pub struct Registry;

pub struct Counter;

pub struct Histogram;

impl Registry {
    pub fn counter(&self, _name: &str) -> Counter {
        Counter
    }
    pub fn histogram(&self, _name: &str) -> Histogram {
        Histogram
    }
}

impl Counter {
    pub fn inc(&self) {}
}

impl Histogram {
    pub fn record(&self, _v: u64) {}
}

pub fn stop(flag: &AtomicBool) {
    flag.store(true, Ordering::SeqCst);
}

pub fn read(p: *const u32) -> u32 {
    // SAFETY: callers pass a pointer derived from a live &u32.
    unsafe { *p }
}

pub fn record(reg: &Registry, kind: &str) {
    reg.counter("clean/events").inc();
    reg.histogram(&format!("clean/req/{kind}")).record(1);
}
