pub use lib::OnlyReexported;

fn main() {
    let s = "only_its_tests in a string reaches nothing";
    let _ = (s, lib::reached());
}

pub enum DefinedTwice {}
