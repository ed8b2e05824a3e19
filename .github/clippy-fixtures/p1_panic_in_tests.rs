//! Fixture for the panic rule's test exemption: `unwrap`, `expect` and
//! `panic!` inside `#[cfg(test)]` code. Expected: no diagnostic.

#[cfg(test)]
mod tests {
    #[test]
    fn panics_are_how_tests_fail() {
        let hops = ["gw".to_string()];
        let first = hops.first().unwrap();
        let last = hops.last().expect("one hop");
        if first != last {
            panic!("{first} != {last}");
        }
    }
}
