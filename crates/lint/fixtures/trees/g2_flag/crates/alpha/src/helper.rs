//! The allocating helper: no marker of its own, so its allocation is
//! flagged only where the marked fn calls it.

pub fn build(x: u32) -> u32 {
    let v: Vec<u32> = Vec::with_capacity(x as usize);
    v.capacity() as u32
}
