//! Mini library fixture for the reach golden test (never compiled).

pub struct Thing;

/// Called by nothing.
pub fn dead() {}

/// Called only from `test.rs`.
pub fn only_tested() {}

/// Called only from this file's unit tests.
pub fn unit_tested() {}

/// Called from the binary.
pub fn shipped() {
    Thing::deep();
}

impl Thing {
    /// Reached through `shipped`.
    pub fn deep() {}

    /// Never listed: the graph does not resolve an unqualified `.len()`.
    pub fn len(&self) -> usize {
        0
    }
}

impl std::fmt::Display for Thing {
    // Never listed, and a root: dispatch calls it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", formatted())
    }
}

/// Reached only through the trait-impl method above.
pub fn formatted() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit() {
        unit_tested();
    }
}
