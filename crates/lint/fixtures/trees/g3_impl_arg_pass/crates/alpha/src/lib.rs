//! G3 should-pass: the `impl Trait` fns on the entry's path are
//! panic-free; the indexing lives in a fn no entry reaches. All four fns
//! are graph nodes.

// dasr-lint: entry(G3)
pub fn entry(xs: &[u32]) -> u32 {
    with_impl(xs, |_| {}) + evens(xs).sum::<u32>()
}

fn with_impl(xs: &[u32], mut f: impl FnMut(u32)) -> u32 {
    f(xs.len() as u32);
    xs.get(1).copied().unwrap_or(0)
}

fn evens(xs: &[u32]) -> impl Iterator<Item = u32> + '_ {
    xs.iter().copied().filter(|x| x % 2 == 0)
}

pub fn off_path(xs: &[u32]) -> u32 {
    xs[1]
}
