//! The hex dumps of `docs/STORE_FORMAT.md`, shared by the tests that
//! treat the spec as a fixture.

pub fn spec_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/STORE_FORMAT.md");
    std::fs::read_to_string(path).expect("docs/STORE_FORMAT.md exists")
}

/// Extracts the bytes of the `n`-th `hexdump` fenced block (1-based:
/// block 1 is the §10 worked example).
pub fn doc_bytes(text: &str, n: usize) -> Vec<u8> {
    let block = text
        .split("```hexdump")
        .nth(n)
        .expect("spec has enough ```hexdump blocks")
        .split("```")
        .next()
        .expect("block is closed");
    let mut out = Vec::new();
    for line in block.lines() {
        let Some((offset, rest)) = line.trim().split_once("  ") else {
            continue;
        };
        let offset = usize::from_str_radix(offset, 16).expect("offset column is hex");
        assert_eq!(offset, out.len(), "dump rows are contiguous");
        for tok in rest.split_whitespace() {
            out.push(u8::from_str_radix(tok, 16).expect("byte column is hex"));
        }
    }
    out
}
