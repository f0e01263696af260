// Fixture: H02 twin — library code renders; callers that own a
// terminal (the CLI binary) print.
pub fn report(x: u64) -> String {
    format!("x = {x}\n")
}

#[cfg(test)]
mod tests {
    #[test]
    fn prints_are_fine_in_tests() {
        println!("debugging a test is allowed");
        assert_eq!(super::report(3), "x = 3\n");
    }
}
