//! Fixture panic-reachability cases: a panicking helper reached from a
//! bare `thread::spawn` (escaping), and a second helper reached only
//! from a pool work unit and a `catch_unwind`-wrapped spawn (both
//! contained). Two sites, because reachability reports the *strongest*
//! verdict per site — a shared site would collapse to escaping.

#![forbid(unsafe_code)]

/// Panics on zero; reached only from the unguarded spawn.
pub fn fragile(x: u64) -> u64 {
    x.checked_sub(1).unwrap()
}

/// Panics on zero; reached only from contained roots. The body is
/// spelled differently from `fragile` on purpose: identical snippets
/// within the fuzzy-match window would share a baseline key.
pub fn fragile_pooled(x: u64) -> u64 {
    x.checked_sub(1).expect("fixture underflow")
}

/// Work units are contained by construction: the pool wraps each one
/// in `catch_unwind`.
pub fn pooled(xs: &[u64]) -> u64 {
    parallel_for_ordered(xs.len(), |i| fragile_pooled(xs[i]))
}

/// A bare spawn: a panic here tears the thread down.
pub fn spawned() -> std::thread::JoinHandle<u64> {
    std::thread::spawn(|| fragile(0))
}

/// A spawn that guards its body: the panic is contained.
pub fn spawned_guarded() -> std::thread::JoinHandle<u64> {
    std::thread::spawn(|| std::panic::catch_unwind(|| fragile_pooled(0)).unwrap_or(0))
}

/// Stand-in for the simcore pool entry point; only the *name* matters
/// to the analyzer's closure-root scan.
pub fn parallel_for_ordered(n: usize, f: impl Fn(usize) -> u64) -> u64 {
    (0..n).map(f).sum()
}
