//! What `scenario-run`, `campaign-run`, `service-run` and `campaign-report`
//! share in reading their command lines.

/// A binary's name and its usage, which prints the usage text and exits 2.
pub struct Cli {
    program: &'static str,
    usage: fn() -> !,
}

impl Cli {
    /// The command line of `program`, whose `usage` prints the usage text
    /// and exits with code 2.
    pub fn new(program: &'static str, usage: fn() -> !) -> Self {
        Self { program, usage }
    }

    /// Stores the value of `flag` in `slot`.  A flag given twice is an
    /// error, not a second value: it prints `<program>: <flag> given twice`
    /// and the usage, and exits 2.
    pub fn set<T>(&self, slot: &mut Option<T>, flag: &str, value: T) {
        if slot.replace(value).is_some() {
            eprintln!("{}: {flag} given twice", self.program);
            (self.usage)();
        }
    }
}
