//! Known-bad fixture for the panic rule: every panic the workspace
//! lints deny in library code. Expected: one error each for
//! `clippy::unwrap_used`, `expect_used`, `panic`, `unreachable`, `todo`
//! and `unimplemented`.

pub fn first_hop(hops: &[String]) -> &String {
    hops.first().unwrap()
}

pub fn first_hop_documented(hops: &[String]) -> &String {
    hops.first().expect("campaign plans always have a hop")
}

pub fn assert_mode(mode: &str) {
    if mode != "field" && mode != "lab" {
        panic!("unsupported mode {mode}");
    }
}

pub fn mode_index(mode: &str) -> usize {
    match mode {
        "field" => 0,
        "lab" => 1,
        _ => unreachable!("modes are checked on entry"),
    }
}

pub fn retest_mode() -> usize {
    todo!()
}

pub fn legacy_mode() -> usize {
    unimplemented!()
}
