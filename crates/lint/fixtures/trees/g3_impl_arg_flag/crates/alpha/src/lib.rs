//! G3 should-flag: fns with `impl Trait` in argument and in return
//! position are graph nodes like any other, so the panic sites they
//! hold are reachable from the entry.

// dasr-lint: entry(G3)
pub fn entry(xs: &[u32]) -> u32 {
    named(xs) + with_impl(xs, |_| {}) + evens(xs).sum::<u32>()
}

fn named(xs: &[u32]) -> u32 {
    xs.first().copied().unwrap_or(0)
}

fn with_impl(xs: &[u32], mut f: impl FnMut(u32)) -> u32 {
    f(xs.len() as u32);
    xs[1]
}

fn evens(xs: &[u32]) -> impl Iterator<Item = u32> + '_ {
    let first = xs.first().copied().expect("non-empty");
    xs.iter().map(move |x| x + first)
}
