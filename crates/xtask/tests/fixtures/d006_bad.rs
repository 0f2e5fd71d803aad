pub fn reached() -> u32 {
    1
}

pub fn only_its_tests() -> u32 {
    2
}

pub struct OnlyReexported;

pub enum DefinedTwice {}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn helper() {}

    #[test]
    fn names_it() {
        helper();
        assert_eq!(only_its_tests(), 2);
    }
}
