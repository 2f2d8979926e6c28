//! The `doqlab` binary end to end: it reads its flags and `DOQLAB_*`
//! variables once, at start-up, and a flag beats its variable.

use std::process::{Command, Output};

/// Run `doqlab` with every `DOQLAB_*` variable cleared, then `vars` set.
fn doqlab(args: &[&str], vars: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_doqlab"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("DOQLAB_") {
            cmd.env_remove(name);
        }
    }
    cmd.args(args)
        .envs(vars.iter().copied())
        .output()
        .expect("doqlab runs")
}

const SINGLE_QUERY: [&str; 6] = [
    "measure",
    "single-query",
    "--scale",
    "quick",
    "--resolvers",
    "2",
];

/// The single-query report at two resolvers, with `extra` flags.
fn single_query(extra: &[&str], vars: &[(&str, &str)]) -> String {
    let args = [&SINGLE_QUERY[..], extra].concat();
    let out = doqlab(&args, vars);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?} {vars:?}: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 report")
}

#[test]
fn the_seed_flag_beats_its_variable() {
    let flag = single_query(&["--seed", "7"], &[]);
    assert_eq!(single_query(&[], &[("DOQLAB_SEED", "7")]), flag);
    assert_eq!(
        single_query(&["--seed", "7"], &[("DOQLAB_SEED", "8")]),
        flag
    );
    assert_ne!(single_query(&[], &[]), flag, "the default seed is not 7");
}

#[test]
fn the_report_does_not_depend_on_the_worker_count() {
    assert_eq!(
        single_query(&[], &[("DOQLAB_THREADS", "1")]),
        single_query(&["--threads", "3"], &[])
    );
}

#[test]
fn bad_flags_exit_2_with_the_usage() {
    for bad in [["--threads", "0"], ["--seed", "x"]] {
        let out = doqlab(&[&SINGLE_QUERY[..], &bad].concat(), &[]);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: doqlab"));
    }
}
