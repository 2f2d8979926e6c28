//! The one argument parser. Every binary that builds a [`Study`] walks
//! its arguments with [`Flags::parse`] and passes them, with a lookup of
//! its process environment, to [`Study::from_flags`]. Library code reads
//! no environment: campaigns take their worker and client counts from
//! the [`Scale`](crate::measure::Scale) fields filled in here.

use crate::Study;
use std::collections::BTreeMap;
use std::str::FromStr;

/// The flags [`Study::from_flags`] interprets; every binary that builds
/// a study accepts all of them.
pub const STUDY_FLAGS: [&str; 6] = [
    "--scale",
    "--seed",
    "--threads",
    "--resolvers",
    "--pages",
    "--reps",
];

/// A walked command line: `--name value` pairs and bare switches. A
/// repeated flag keeps its last value.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<&'static str, String>,
    switches: Vec<&'static str>,
}

impl Flags {
    /// Walk `args` (without the program name). `valued` names the flags
    /// that take a value and `switches` the bare ones; any other
    /// argument, or a valued flag with nothing after it, is an error.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&name) = valued.iter().find(|&&f| f == arg) {
                let value = args.next().ok_or_else(|| format!("{name} needs a value"))?;
                flags.values.insert(name, value);
            } else if let Some(&name) = switches.iter().find(|&&f| f == arg) {
                flags.switches.push(name);
            } else {
                return Err(format!("unknown argument {arg}"));
            }
        }
        Ok(flags)
    }

    /// The value given for `name`, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value given for `name`, parsed; one that does not parse is an
    /// error.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name} takes a number, not {v}"))
            })
            .transpose()
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }
}

impl Study {
    /// The study that `flags` and the environment ask for, at
    /// `default_scale` when there is no `--scale`. `env` looks up
    /// `DOQLAB_SEED`, `DOQLAB_THREADS` and `DOQLAB_CLIENTS` (a binary
    /// passes its process environment). A flag beats its variable and
    /// the variable beats the default: seed 2022, worker count
    /// [`Scale::default_threads`](crate::measure::Scale::default_threads),
    /// the scale's client count. A variable that does not parse is
    /// ignored, and so is a worker or client count that is not positive.
    /// `--reps` sets both the single-query repetitions and the Web
    /// rounds.
    ///
    /// An unknown scale, a flag that does not parse and `--threads 0` are
    /// errors.
    pub fn from_flags(
        flags: &Flags,
        default_scale: &str,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Study, String> {
        let var = |name: &str| env(name).and_then(|v| v.trim().parse::<u64>().ok());
        let positive = |name: &str| var(name).filter(|&n| n > 0);
        let seed = match flags.parsed("--seed")? {
            Some(seed) => seed,
            None => var("DOQLAB_SEED").unwrap_or(2022),
        };
        let mut study = match flags.value("--scale").unwrap_or(default_scale) {
            "quick" => Study::quick(seed),
            "medium" => Study::medium(seed),
            "paper" => Study::paper(seed),
            other => return Err(format!("unknown scale {other} (quick|medium|paper)")),
        };
        let scale = &mut study.scale;
        match flags.parsed("--threads")? {
            Some(0) => return Err("--threads must be positive".to_string()),
            Some(n) => scale.threads = n,
            None => {
                if let Some(n) = positive("DOQLAB_THREADS").and_then(|n| n.try_into().ok()) {
                    scale.threads = n;
                }
            }
        }
        if let Some(n) = positive("DOQLAB_CLIENTS") {
            scale.clients = Some(n);
        }
        if let Some(n) = flags.parsed("--resolvers")? {
            scale.resolvers = Some(n);
        }
        if let Some(n) = flags.parsed("--pages")? {
            scale.pages = Some(n);
        }
        if let Some(n) = flags.parsed("--reps")? {
            scale.repetitions = n;
            scale.rounds = n;
        }
        Ok(study)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Scale;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(
            args.iter().map(|a| a.to_string()),
            &STUDY_FLAGS,
            &["--json"],
        )
    }

    /// `(seed, threads, clients)` of the study `args` ask for with only
    /// `vars` set.
    fn study(args: &[&str], vars: &[(&str, &str)]) -> Result<(u64, usize, Option<u64>), String> {
        let env = |k: &str| vars.iter().find(|v| v.0 == k).map(|v| v.1.to_string());
        let s = Study::from_flags(&flags(args)?, "medium", env)?;
        Ok((s.seed, s.scale.threads, s.scale.clients))
    }

    #[test]
    fn a_flag_beats_its_variable_and_the_variable_beats_the_default() {
        let (threads, clients) = (Scale::default_threads(), Scale::medium().clients);
        assert_eq!(study(&[], &[]), Ok((2022, threads, clients)));
        let vars = [
            ("DOQLAB_SEED", " 8 "),
            ("DOQLAB_THREADS", "3"),
            ("DOQLAB_CLIENTS", "512"),
        ];
        assert_eq!(study(&[], &vars), Ok((8, 3, Some(512))));
        let flagged = study(&["--seed", "7", "--threads", "5"], &vars);
        assert_eq!(flagged, Ok((7, 5, Some(512))));
        // Garbage is ignored, and so are counts that are not positive;
        // a zero seed is a seed.
        for bad in ["", "x", "-1", "1.5", "0"] {
            let vars = [
                ("DOQLAB_SEED", bad),
                ("DOQLAB_THREADS", bad),
                ("DOQLAB_CLIENTS", bad),
            ];
            let seed = if bad == "0" { 0 } else { 2022 };
            assert_eq!(study(&[], &vars), Ok((seed, threads, clients)), "{bad:?}");
        }
    }

    #[test]
    fn flags_set_scale_fields_and_switches() {
        let args = ["--scale", "quick", "--resolvers", "2", "--pages", "1"];
        let f = flags(&[&args[..], &["--reps", "3", "--json", "--reps", "4"]].concat()).unwrap();
        assert!(f.switch("--json"));
        assert!(!flags(&args).unwrap().switch("--json"));
        let s = Study::from_flags(&f, "medium", |_| None).unwrap().scale;
        assert_eq!(
            (s.resolvers, s.pages, s.clients),
            (Some(2), Some(1), Some(2_000))
        );
        assert_eq!(
            (s.repetitions, s.rounds),
            (4, 4),
            "--reps sets both; the last wins"
        );
    }

    #[test]
    fn bad_arguments_are_errors() {
        for (args, error) in [
            (&["--bogus"][..], "unknown argument --bogus"),
            (&["--json", "7"], "unknown argument 7"),
            (&["--seed"], "--seed needs a value"),
            (&["--seed", "abc"], "--seed takes a number, not abc"),
            (&["--threads", "-1"], "--threads takes a number, not -1"),
            (&["--reps", "1e3"], "--reps takes a number, not 1e3"),
            (&["--threads", "0"], "--threads must be positive"),
            (
                &["--scale", "huge"],
                "unknown scale huge (quick|medium|paper)",
            ),
        ] {
            let vars = [("DOQLAB_THREADS", "2")];
            assert_eq!(study(args, &vars), Err(error.to_string()), "{args:?}");
        }
    }
}
