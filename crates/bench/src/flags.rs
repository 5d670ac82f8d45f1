//! The `--flag value` argument parser the `fuzz`, `obs` and `bench` CLIs
//! share. Each binary passes its own `usage` function, which prints the
//! error and the binary's usage text and exits with status 2.

/// Arguments not yet consumed, plus the binary's usage-error exit.
pub struct Flags {
    argv: Vec<String>,
    usage: fn(&str) -> !,
}

impl Flags {
    /// Wraps `argv` (without the program name).
    pub fn new(argv: Vec<String>, usage: fn(&str) -> !) -> Flags {
        Flags { argv, usage }
    }

    /// Removes `flag` and its value; a trailing `flag` with no value is a
    /// usage error.
    pub fn take(&mut self, flag: &str) -> Option<String> {
        let i = self.argv.iter().position(|a| a == flag)?;
        if i + 1 >= self.argv.len() {
            (self.usage)(&format!("{flag} needs a value"));
        }
        let v = self.argv.remove(i + 1);
        self.argv.remove(i);
        Some(v)
    }

    /// [`Flags::take`], parsed; an unparsable value is a usage error.
    pub fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Option<T> {
        self.take(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| (self.usage)(&format!("{flag}: cannot parse '{v}'")))
        })
    }

    /// Removes the switch `flag`; returns whether it was present.
    pub fn take_bool(&mut self, flag: &str) -> bool {
        let i = self.argv.iter().position(|a| a == flag);
        if let Some(i) = i {
            self.argv.remove(i);
        }
        i.is_some()
    }

    /// Ends parsing: any argument left over is a usage error.
    pub fn finish(self) {
        if let Some(stray) = self.argv.first() {
            (self.usage)(&format!("unknown argument '{stray}'"));
        }
    }
}
