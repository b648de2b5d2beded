//! Mini binary fixture for the reach golden test (never compiled).

fn main() {
    shipped();
}
