//! The one argument parser behind `octofs`, `octofs-remote`,
//! `octofs-master` and `octofs-worker`: `--name VALUE` pairs and bare
//! flags are taken out by name wherever they stand, what is left is
//! positional, and every way of getting it wrong — a flag without its
//! value, a value that does not parse, an argument nobody asked for — is
//! an [`FsError::InvalidArgument`] carrying the usage line.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use crate::{FsError, Result};

/// A binary's `main`: `run` on the process's arguments, its error logged
/// under `target` as a failing exit.
pub fn main(target: &'static str, run: fn(&[String]) -> Result<()>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            octopus_common::log_error!(target: target, "msg=\"failed\" err=\"{e}\"");
            ExitCode::FAILURE
        }
    }
}

/// Arguments not yet claimed, and the usage line errors quote.
pub struct Args {
    usage: String,
    rest: Vec<String>,
}

impl Args {
    /// `args` to be parsed against `usage`.
    pub fn new(usage: impl Into<String>, args: &[String]) -> Self {
        Self { usage: usage.into(), rest: args.to_vec() }
    }

    /// `what`, followed by the usage line.
    pub fn bad(&self, what: impl Display) -> FsError {
        FsError::InvalidArgument(format!("{what}; usage: {}", self.usage))
    }

    /// Takes `name VALUE` out and parses the value; `None` if `name` was
    /// not given.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 == self.rest.len() {
            return Err(self.bad(format_args!("{name} needs a value")));
        }
        self.rest.remove(i);
        let v = self.rest.remove(i);
        v.parse().map(Some).map_err(|_| self.bad(format_args!("bad value {v:?} for {name}")))
    }

    /// Takes the bare flag `name` out, returning whether it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    /// Takes out everything left, unchecked (a command and its own
    /// arguments, to be parsed against that command's usage).
    pub fn rest(&mut self) -> Vec<String> {
        std::mem::take(&mut self.rest)
    }

    /// Takes out what is left, which must be `min..=max` positional
    /// arguments: a leftover `--flag` is an argument nobody asked for.
    pub fn positionals(&mut self, min: usize, max: usize) -> Result<Vec<String>> {
        if let Some(stray) = self.rest.iter().find(|a| a.starts_with("--")) {
            return Err(self.bad(format_args!("unknown flag {stray}")));
        }
        if !(min..=max).contains(&self.rest.len()) {
            return Err(self.bad("wrong number of arguments"));
        }
        Ok(std::mem::take(&mut self.rest))
    }

    /// [`Args::positionals`] when there must be exactly `N`.
    pub fn exactly<const N: usize>(&mut self) -> Result<[String; N]> {
        Ok(self.positionals(N, N)?.try_into().expect("N were checked"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(
            "prog [--n N] [-r] A [B]",
            &list.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        )
    }

    fn message(e: FsError) -> String {
        match e {
            FsError::InvalidArgument(m) => m,
            other => panic!("not InvalidArgument: {other}"),
        }
    }

    #[test]
    fn flags_come_out_wherever_they_stand() {
        let mut a = args(&["x", "--n", "7", "-r", "y"]);
        assert_eq!(a.value::<u32>("--n").unwrap(), Some(7));
        assert!(a.flag("-r") && !a.flag("-r"));
        assert_eq!(a.value::<String>("--absent").unwrap(), None);
        assert_eq!(a.exactly().unwrap(), ["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn every_mistake_is_invalid_argument_with_the_usage_line() {
        let usage = "usage: prog [--n N] [-r] A [B]";
        for (m, want) in [
            (message(args(&["x", "--n"]).value::<u32>("--n").unwrap_err()), "--n needs a value"),
            (message(args(&["--n", "x"]).value::<u32>("--n").unwrap_err()), "bad value \"x\""),
            (message(args(&["x", "--bogus"]).positionals(1, 2).unwrap_err()), "unknown flag"),
            (message(args(&[]).positionals(1, 2).unwrap_err()), "wrong number"),
            (message(args(&["a", "b", "c"]).positionals(1, 2).unwrap_err()), "wrong number"),
        ] {
            assert!(m.contains(want) && m.ends_with(usage), "{m}");
        }
    }
}
