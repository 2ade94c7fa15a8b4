//! The command-line contract of the six harness binaries, checked
//! against the public flag tables in `themis_harness::cli`: the tables
//! are well-formed, every documented command line still parses, the
//! flag sets are exactly the ones the binaries accepted before the
//! tables existed, and input that used to be silently ignored is a typed
//! usage error. (`crates/harness/tests/cli_exit_codes.rs` drives the
//! real binaries; the parser's own unit tests live in `cli.rs`.)

use std::collections::BTreeSet;
use themis::harness::cli::{
    Cli, Kind, Parsed, UsageError, ALL, FIG1, FIG5, THEMIS_FUZZ, THEMIS_LOAD, THEMIS_SERVE,
    THEMIS_SIM,
};

fn parse(cli: &'static Cli, line: &str) -> Result<Parsed, UsageError> {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    cli.parse(&args)
}

#[test]
fn tables_are_well_formed() {
    for cli in ALL {
        assert!(!cli.about.is_empty(), "{}", cli.bin);
        let names: BTreeSet<_> = cli.commands.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), cli.commands.len(), "{}: commands", cli.bin);
        assert_eq!(names.contains(""), cli.commands.len() == 1, "{}", cli.bin);
        for c in cli.commands {
            let mut spellings = BTreeSet::from(["--help".to_string(), "-h".to_string()]);
            for f in c.flags() {
                let at = format!("{} {} --{}", cli.bin, c.name, f.name);
                assert!(!f.help.is_empty(), "{at}: help line");
                let is_switch = matches!(f.kind, Kind::Switch);
                assert_eq!(is_switch, f.placeholder.is_empty(), "{at}: placeholder");
                assert!(!is_switch || f.default.is_empty(), "{at}: switch default");
                let long = format!("--{}", f.name);
                for s in std::iter::once(long).chain(f.aliases.iter().map(|a| a.to_string())) {
                    assert!(s.starts_with('-') && !s.contains(' '), "{at}: '{s}'");
                    assert!(spellings.insert(s.clone()), "{at}: '{s}' declared twice");
                }
            }
            for p in c.positionals {
                let at = format!("{} {} {}", cli.bin, c.name, p.name);
                assert!(!p.help.is_empty() && p.aliases.is_empty(), "{at}");
                assert_eq!(p.name, p.name.to_ascii_uppercase(), "{at}");
                assert!(spellings.insert(p.name.to_string()), "{at}: declared twice");
            }
        }
    }
}

/// Every invocation in `scripts/ci.sh`, README.md, EXPERIMENTS.md,
/// DESIGN.md and the verify skill (paths and `[optional]` brackets
/// flattened, `S`/`K` placeholders given numbers).
const DOCUMENTED: &[(&Cli, &[&str])] = &[
    (
        &FIG1,
        &[
            "",
            "25",
            "2 --jobs 2",
            "25 --telemetry fig1.json",
            "25 --jobs 2 --telemetry fig1.json --trace-last 64",
        ],
    ),
    (
        &FIG5,
        &[
            "allreduce 8",
            "alltoall 8",
            "allreduce 1 --jobs 4",
            "allreduce 2 --seed 7 --jobs 4",
            "allreduce 1 --jobs 4 --shards 2",
            "allreduce 8 --jobs 4",
            "--jobs 2 --shards 2",
            "allreduce 2",
            "alltoall 2",
            "allreduce 2 --seed 1 --jobs 4 --telemetry fig5a.json --trace-last 64",
            "alltoall 2 --seed 1 --jobs 4 --telemetry fig5b.json --trace-last 64",
            "allreduce 1 --seed 7 --jobs 1",
            "allreduce 1 --seed 7 --jobs 2 --shards 2",
            "--scheme zoo allreduce 1",
            "--scheme zoo allreduce 1 --jobs 8",
            "--scheme zoo --fat-tree 1",
            "--fat-tree --scheme zoo 1 --jobs 4 --shards 2",
            "--scheme reps,eunomia",
        ],
    ),
    (
        &THEMIS_SIM,
        &[
            "collective --collective alltoall --scheme ar --mb 8 --ti 10 --td 50",
            "p2p --fabric motivation --scheme spray-nofilter --mb 16 --pfc",
            "memory",
            "memory --paths 256",
            "collective --scheme ecmp --mb 1 --ti 900 --td 4 --csv",
            "memory --paths 256 --qps 100 --nics 16",
            "p2p --scheme themis --mb 16 --telemetry p2p.json --trace-last 64",
            "collective --scheme spray-nofilter --mb 4 --telemetry out.json",
            "collective --scheme sprinklers --telemetry out.json",
            "p2p --scheme themis-nocomp",
            "p2p --mb 2 --shards 2 --telemetry t2.json",
            "p2p --mb 4 --horizon-s 0 --trace-last 8",
        ],
    ),
    (
        &THEMIS_LOAD,
        &[
            "--seed 5 --jobs 200 --tenants 24 --evict-per-window 16 --windows 14",
            "--seed 5 --jobs 200 --tenants 24 --evict-per-window 16 --windowed-telemetry w.json",
            "--seed 11 --windowed-telemetry a.json",
            "--seed 11 --shards 2 --windowed-telemetry c.json",
            "--k 16 --jobs 1200 --tenants 200 --ranks-min 3 --ranks-max 8 --incast-every 24 \
             --incast-fanin 12 --window-us 4000 --windows 12",
            "--k 16 --jobs 1200 --tenants 200 --ranks-min 3 --ranks-max 8 --incast-every 24 \
             --incast-fanin 12 --mean-gap-us 25 --window-us 4000 --windows 12 \
             --evict-per-window 32",
            "--scheme reps --burst --cdf storage --no-require-complete --shards 2",
            "--burst --cdf storage --no-require-complete",
            "--jobs 2 --windows 1 --window-us 1 --no-require-complete",
            // Well-formed for the parser; LoadConfig::validate rejects it.
            "--jobs 0",
        ],
    ),
    (
        &THEMIS_SERVE,
        &[
            "--socket /tmp/themis.sock --k 4 --seed 7",
            "--socket /tmp/themis.sock --k 4 --scheme themis --seed 7",
            "--connect /tmp/themis.sock",
            "--socket /tmp/themis.sock --restore checkpoint.json",
            "--tcp 127.0.0.1:7117",
            // Well-formed for the parser; ServiceConfig::validate rejects it.
            "--socket s.sock --window-us 0",
        ],
    ),
    (
        &THEMIS_FUZZ,
        &[
            "--budget 200 --min-features 150",
            "--budget 25 --shards 2",
            "--scheme reps --budget 30",
            "--scheme eunomia --budget 30",
            "--scheme sprinklers --budget 30",
            "--scheme oracle --budget 30",
            "--replay-corpus tests/corpus",
            "--replay-corpus tests/corpus --shards 2",
            "--replay-corpus case.txt",
            "--budget 150 --emit-corpus tests/corpus.new",
            "--seed 3405705229 --only 17",
            "--plan plan.txt",
        ],
    ),
];

#[test]
fn every_documented_command_line_parses() {
    for (cli, lines) in DOCUMENTED {
        for line in *lines {
            match parse(cli, line) {
                Ok(Parsed::Run(_)) => {}
                other => panic!("{} {line}: {other:?}", cli.bin),
            }
        }
    }
}

/// The flag names each binary read at the commit before the tables
/// (`6ff9940`), collected from its argv loop — less `themis_sim sweep`
/// and its `jobs`, plus the `fig5 --seed` that replaced it: the tables
/// must add none and drop none.
#[test]
fn flag_sets_are_the_ones_the_binaries_always_accepted() {
    let before: [(&Cli, &str); 6] = [
        (&FIG1, "jobs shards telemetry trace-last"),
        (
            &FIG5,
            "scheme fat-tree seed jobs shards telemetry trace-last",
        ),
        (
            &THEMIS_SIM,
            "scheme seed fabric leaves hosts spines gbps pfc transport ti td horizon-s shards \
             collective mb csv telemetry trace-last paths rtt-us mtu f100 nics qps",
        ),
        (
            &THEMIS_LOAD,
            "scheme seed k shards jobs tenants mean-gap-us burst burst-len burst-factor cdf \
             ranks-min ranks-max incast-every incast-fanin max-kb window-us windows \
             evict-per-window no-require-complete fault-plan windowed-telemetry telemetry",
        ),
        (
            &THEMIS_SERVE,
            "connect tcp socket restore scheme k seed shards window-us",
        ),
        (
            &THEMIS_FUZZ,
            "seed scheme budget collective kb max-episodes shards blind emit-corpus keep-going \
             trace-last replay-corpus plan only min-features",
        ),
    ];
    for (cli, names) in before {
        let want: BTreeSet<&str> = names.split_whitespace().collect();
        let commands = cli.commands.iter();
        let have: BTreeSet<&str> = commands.flat_map(|c| c.flags().map(|f| f.name)).collect();
        assert_eq!(have, want, "{}", cli.bin);
        // The only short/alternate spellings, old and new.
        for f in cli.commands.iter().flat_map(|c| c.flags()) {
            let aliases: &[&str] = match (cli.bin, f.name) {
                ("themis_load", "jobs") => &[],
                (_, "jobs") => &["-j"],
                (_, "shards") => &["-s"],
                ("fig5", "scheme") => &["--schemes"],
                _ => &[],
            };
            assert_eq!(f.aliases, aliases, "{} --{}", cli.bin, f.name);
        }
    }
    let positionals = |cli: &Cli| -> Vec<&str> {
        let commands = cli.commands.iter();
        commands
            .flat_map(|c| c.positionals.iter().map(|p| p.name))
            .collect()
    };
    assert_eq!(positionals(&FIG1), ["MB_PER_FLOW"]);
    assert_eq!(positionals(&FIG5), ["COLLECTIVE", "MB"]);
    let commands: Vec<_> = THEMIS_SIM.commands.iter().map(|c| c.name).collect();
    assert_eq!(commands, ["collective", "p2p", "memory"]);
    // The DCQCN sweep has one door: `fig5 allreduce 2 --seed 7 --jobs 4`.
    assert_eq!(
        parse(&THEMIS_SIM, "sweep --mb 2 --seed 7 --jobs 4").err(),
        Some(UsageError::UnknownCommand("sweep".into()))
    );
}

/// Each of these exited 0 at `6ff9940`, having ignored the bad token
/// (or, for `fig5 --help`, exited 2 as an "unknown collective").
#[test]
fn what_used_to_be_silently_ignored_is_a_usage_error() {
    let bad = |flag: &str, value: &str| UsageError::BadValue(flag.into(), value.into());
    let cases: Vec<(&Cli, &str, UsageError)> = vec![
        (
            &THEMIS_LOAD,
            "--sheme reps --jobs 2O --seed abc",
            UsageError::UnknownFlag("--sheme".into()),
        ),
        (&THEMIS_LOAD, "--jobs 2O", bad("--jobs", "2O")),
        (&THEMIS_LOAD, "--seed abc", bad("--seed", "abc")),
        (&THEMIS_SIM, "p2p --mb -1", bad("--mb", "-1")),
        (
            &THEMIS_FUZZ,
            "--min-features 15O",
            bad("--min-features", "15O"),
        ),
        (&THEMIS_FUZZ, "--only x", bad("--only", "x")),
        (&THEMIS_FUZZ, "--kb x", bad("--kb", "x")),
        (&THEMIS_FUZZ, "--trace-last x", bad("--trace-last", "x")),
        (&THEMIS_SIM, "p2p --trace-last x", bad("--trace-last", "x")),
        (
            &THEMIS_LOAD,
            "--seed --jobs 5",
            UsageError::MissingValue("--seed".into()),
        ),
        (&FIG1, "--bogus", UsageError::UnknownFlag("--bogus".into())),
        (
            &FIG5,
            "allgather 8",
            UsageError::UnexpectedArgument("allgather".into()),
        ),
        (
            &THEMIS_LOAD,
            "--burst 5",
            UsageError::SwitchTakesNoValue("--burst".into(), "5".into()),
        ),
        (
            &THEMIS_SERVE,
            "--connect",
            UsageError::MissingValue("--connect".into()),
        ),
    ];
    for (cli, line, want) in cases {
        assert_eq!(parse(cli, line).err(), Some(want), "{} {line}", cli.bin);
    }
    // `--help` is help on every binary, wherever it appears.
    for cli in ALL {
        assert!(matches!(parse(cli, "--help"), Ok(Parsed::Help(_))));
        assert!(matches!(parse(cli, "-h"), Ok(Parsed::Help(_))));
    }
    assert!(matches!(
        parse(&FIG5, "alltoall --help"),
        Ok(Parsed::Help(_))
    ));
    // One spelling per concept: `--shards auto` parses everywhere.
    for (cli, line) in [
        (&THEMIS_SIM, "p2p --shards auto"),
        (&FIG5, "--shards auto"),
        (&THEMIS_LOAD, "--shards auto"),
        (&THEMIS_SERVE, "--shards auto"),
        (&THEMIS_FUZZ, "--shards auto"),
        (&FIG1, "-s auto"),
    ] {
        match parse(cli, line) {
            Ok(Parsed::Run(m)) => {
                assert_eq!(m.shards(), themis::harness::knobs::auto_shards())
            }
            other => panic!("{} {line}: {other:?}", cli.bin),
        }
    }
    // ... and `themis_sim --collective` is case-insensitive like the rest.
    match parse(&THEMIS_SIM, "collective --collective AllGather") {
        Ok(Parsed::Run(m)) => assert_eq!(
            m.collective("collective"),
            Some(themis::harness::Collective::AllGather)
        ),
        other => panic!("{other:?}"),
    }
}
