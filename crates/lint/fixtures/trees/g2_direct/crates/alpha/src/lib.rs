//! G2 direct allocation: the marked fn's own allocation sites are each
//! flagged at their line; the allocating constructor is an unmarked
//! sibling the marked fn never calls, so it is not.

pub struct Pump {
    scratch: Vec<u64>,
}

impl Pump {
    pub fn new() -> Self {
        Pump {
            scratch: Vec::with_capacity(64),
        }
    }

    // dasr-lint: no-alloc
    pub fn pump(&mut self, now: u64) -> usize {
        let label = format!("pump at {now}");
        let copied = self.scratch.to_vec();
        let fresh: Vec<u64> = Vec::new();
        let n = copied.iter().chain(fresh.iter()).count();
        n + label.len()
    }
}
