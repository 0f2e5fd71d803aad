pub fn reached() -> u32 {
    1
}

/// Doc comments and attributes sit above the waiver.
#[must_use]
// lint:allow(D006, reason = "how the tests see the count production keeps (ROADMAP item 9 decides it)")
pub fn only_its_tests() -> u32 {
    2
}

pub struct OnlyReexported; // lint:allow(D006, reason = "ROADMAP item 5 names it")

pub enum DefinedTwice {}
