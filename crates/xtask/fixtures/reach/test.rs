//! Mini integration-test fixture for the reach golden test (never compiled).

#[test]
fn uses_it() {
    only_tested();
}
