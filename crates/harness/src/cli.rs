//! The one command-line layer under the six harness binaries.
//!
//! Every binary is a [`Cli`] table — commands, positionals and flags,
//! each with its spellings, value [`Kind`], default and help line — and
//! one parser, [`Cli::parse`], turns argv into typed [`Matches`] against
//! it. Whatever the table does not declare (an unknown flag, a missing
//! or malformed value, a stray argument) is a [`UsageError`]; `--help`
//! is rendered from the same table, so the text cannot drift from what
//! is accepted, and defaults live in the table, not at the call sites.
//!
//! The exit-code contract is the same for all six: **0** success, **1**
//! the run failed (incomplete run, oracle violation, I/O error), **2**
//! usage error (message and usage on stderr, nothing run).
//!
//! Flags that mean the same thing everywhere ([`SEED`], [`SCHEME`],
//! [`SHARDS`], [`JOBS`], [`TELEMETRY`], [`TRACE_LAST`]) are declared
//! once and reused; [`crate::knobs`] documents how `--jobs` and
//! `--shards` compose.

use crate::experiment::Collective;
use crate::knobs;
use crate::scheme::Scheme;
use crate::telemetry_out::TelemetryArgs;
use collectives::open_loop::FlowSizeCdf;
use std::fmt;

/// Every string in a table is a literal.
type S = &'static str;

/// What a flag's value must look like; checked when argv is parsed.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// No value: the flag is either present or not.
    Switch,
    /// A non-negative integer no larger than the bound.
    Uint(u64),
    /// Free text (paths, socket addresses).
    Text,
    /// One of a closed set of spellings, matched exactly.
    Choice(&'static [S]),
    /// An engine shard count or `auto` ([`knobs::parse_shards`]).
    Shards,
    /// One scheme ([`Scheme::parse`]).
    Scheme,
    /// Comma-separated schemes; `zoo`/`all` expand to [`Scheme::ZOO`].
    Schemes,
    /// One collective ([`Collective::parse`]).
    Collective,
}

const U64: Kind = Kind::Uint(u64::MAX);
const U32: Kind = Kind::Uint(u32::MAX as u64);
const USIZE: Kind = Kind::Uint(usize::MAX as u64);

/// A parsed flag value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Set,
    Num(u64),
    Text(String),
    Schemes(Vec<Scheme>),
    Collective(Collective),
}

impl Kind {
    fn parse(self, s: &str) -> Option<Value> {
        match self {
            Kind::Switch => None,
            Kind::Uint(max) => s.parse().ok().filter(|n| *n <= max).map(Value::Num),
            Kind::Text => Some(Value::Text(s.into())),
            Kind::Choice(c) => c.contains(&s).then(|| Value::Text(s.into())),
            Kind::Shards => knobs::parse_shards(s).map(|n| Value::Num(n as u64)),
            Kind::Scheme => Scheme::parse(s).map(|x| Value::Schemes(vec![x])),
            Kind::Schemes => {
                let mut out = Vec::new();
                for tok in s.split(',').filter(|t| !t.is_empty()) {
                    match tok.to_ascii_lowercase().as_str() {
                        "zoo" | "all" => out.extend(Scheme::ZOO),
                        _ => out.push(Scheme::parse(tok)?),
                    }
                }
                out.dedup();
                (!out.is_empty()).then_some(Value::Schemes(out))
            }
            Kind::Collective => Collective::parse(s).map(Value::Collective),
        }
    }

    /// The canonical spellings of a kind with a closed value set,
    /// generated from the enums the kind parses into.
    fn choices(self) -> Option<Vec<String>> {
        let schemes = || Scheme::ALL.iter().map(|s| s.cli_name().to_string());
        let collective = |c: &Collective| c.label().to_ascii_lowercase();
        Some(match self {
            Kind::Choice(c) => c.iter().map(|s| s.to_string()).collect(),
            Kind::Scheme => schemes().collect(),
            Kind::Schemes => schemes().chain(["zoo".to_string()]).collect(),
            Kind::Collective => COLLECTIVES.iter().map(collective).collect(),
            _ => return None,
        })
    }
}

/// One row of a table: a `--name` flag, or (in [`Command::positionals`])
/// a positional argument whose `name` is its placeholder.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Long name without the leading `--`.
    pub name: S,
    /// Other accepted spellings, written in full (`-j`, `--schemes`).
    pub aliases: &'static [S],
    /// Value kind.
    pub kind: Kind,
    /// Value placeholder shown in usage (empty for a switch).
    pub placeholder: S,
    /// Default shown in usage and used when the flag is absent; empty =
    /// none. A default starting with `$` names an environment fallback
    /// that [`Matches::shards`] resolves.
    pub default: S,
    /// One-line description.
    pub help: S,
}

const fn opt(name: S, placeholder: S, kind: Kind, default: S, help: S) -> Flag {
    Flag {
        name,
        aliases: &[],
        kind,
        placeholder,
        default,
        help,
    }
}

const fn switch(name: S, help: S) -> Flag {
    opt(name, "", Kind::Switch, "", help)
}

impl Flag {
    const fn alias(self, aliases: &'static [S]) -> Flag {
        Flag { aliases, ..self }
    }

    const fn default(self, default: S) -> Flag {
        Flag { default, ..self }
    }

    fn spelled(&self, tok: &str) -> bool {
        tok.strip_prefix("--") == Some(self.name) || self.aliases.contains(&tok)
    }

    /// The usage row: spellings, help, default, and the accepted choices.
    fn usage(&self, positional: bool) -> String {
        let mut left = [if positional { "" } else { "--" }, self.name].concat();
        for a in self.aliases.iter().chain([&self.placeholder]) {
            left += if a.starts_with('-') { ", " } else { " " };
            left += a;
        }
        let mut row = format!("  {left:<25} {}", self.help);
        if !self.default.is_empty() {
            row += &format!(" [{}]", self.default);
        }
        if let Some(c) = self.kind.choices() {
            row += &format!("\n{:30}one of: {}", "", c.join(" | "));
        }
        row + "\n"
    }
}

/// One (sub)command of a binary: its positionals and flag groups.
#[derive(Debug)]
pub struct Command {
    /// Subcommand name; empty for a binary without subcommands.
    pub name: S,
    /// One-line description.
    pub about: S,
    /// Optional positionals; a token fills the first unfilled one whose
    /// kind accepts it.
    pub positionals: &'static [Flag],
    /// Flag groups (shared groups are reused across tables).
    pub groups: &'static [&'static [Flag]],
}

impl Command {
    /// Every flag of the command, in usage order.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|g| g.iter())
    }
}

/// The flag table of one binary.
#[derive(Debug)]
pub struct Cli {
    /// Binary name.
    pub bin: S,
    /// One-line description.
    pub about: S,
    /// The binary's commands: one unnamed, or several named.
    pub commands: &'static [Command],
}

// ---- the tables: one row per flag -----------------------------------

/// The collectives listed as `--collective` choices.
#[rustfmt::skip]
const COLLECTIVES: [Collective; 6] = [
    Collective::Allreduce, Collective::Alltoall, Collective::AllGather,
    Collective::ReduceScatter, Collective::RingOnce, Collective::Incast,
];

/// `--seed N`: root seed of every RNG stream.
pub const SEED: Flag = opt("seed", "N", U64, "1", "root seed");
/// `--scheme S`: the load-balancing scheme under test.
pub const SCHEME: Flag = opt("scheme", "S", Kind::Scheme, "themis", "scheme (SCHEMES.md)");
/// `--shards N|auto` / `-s`: engine shards within one run.
#[rustfmt::skip]
pub const SHARDS: Flag = opt("shards", "N|auto", Kind::Shards, "$THEMIS_SHARDS or 1",
    "engine shards per run; results are bit-identical for any value").alias(&["-s"]);
/// `--jobs N` / `-j`: sweep-level worker threads.
#[rustfmt::skip]
pub const JOBS: Flag = opt("jobs", "N", USIZE, "1",
    "sweep worker threads; results are identical for any value").alias(&["-j"]);
/// `--telemetry PATH`: the versioned JSON report.
#[rustfmt::skip]
pub const TELEMETRY: Flag = opt("telemetry", "PATH", Kind::Text, "",
    "write the versioned themis-telemetry JSON report");
/// `--trace-last N`: event-ring dump on abnormal exit.
#[rustfmt::skip]
pub const TRACE_LAST: Flag = opt("trace-last", "N", USIZE, "",
    "on an incomplete or failing run, dump the last N structured events to stderr");

const ENGINE: &[Flag] = &[SCHEME, SEED, SHARDS];
const PARALLEL: &[Flag] = &[JOBS, SHARDS];
const TELEMETRY_OUT: &[Flag] = &[TELEMETRY, TRACE_LAST];
#[rustfmt::skip]
const COLLECTIVE: Flag = opt("collective", "C", Kind::Collective, "allreduce", "collective per group");
const MB: Flag = opt(
    "mb",
    "N",
    U64,
    "4",
    "buffer MB per group (per flow for p2p)",
);
const RADIX: Flag = opt("k", "N", USIZE, "4", "fat-tree radix (4, 8, 16, 32)");
const WINDOW_US: Flag = opt("window-us", "US", U64, "500", "window width in us");

/// `fig1`.
#[rustfmt::skip]
pub static FIG1: Cli = Cli {
    bin: "fig1",
    about: "Figure 1 (motivation): NIC-SR vs Ideal transport under random spraying",
    commands: &[Command {
        name: "", about: "",
        positionals: &[opt("MB_PER_FLOW", "", U64, "25", "MB per flow (paper: 100)")],
        groups: &[PARALLEL, TELEMETRY_OUT],
    }],
};

/// `fig5`.
#[rustfmt::skip]
pub static FIG5: Cli = Cli {
    bin: "fig5",
    about: "Figure 5: tail completion time per scheme across the DCQCN (T_I, T_D) sweep",
    commands: &[Command {
        name: "", about: "",
        positionals: &[
            opt("COLLECTIVE", "", Kind::Choice(&["allreduce", "alltoall"]), "allreduce",
                "collective per group (fig 5a / 5b; unused with --fat-tree)"),
            opt("MB", "", U64, "", "MB per group [8], per ring with --fat-tree [1] (paper: 300)"),
        ],
        groups: &[&[
            opt("scheme", "LIST", Kind::Schemes, "ecmp,ar,themis", "comma-separated schemes to compare")
                .alias(&["--schemes"]),
            switch("fat-tree", "run the k=16 fat-tree (1024 hosts) inter-pod ring leg instead"),
            SEED,
        ], PARALLEL, TELEMETRY_OUT],
    }],
};

#[rustfmt::skip]
const SIM_FABRIC: &[Flag] = &[
    opt("fabric", "F", Kind::Choice(&["paper", "motivation"]), "paper", "fabric preset"),
    opt("leaves", "N", USIZE, "4", "custom fabric: leaves (with --hosts/--spines/--gbps)"),
    opt("hosts", "N", USIZE, "2", "custom fabric: hosts per leaf"),
    opt("spines", "N", USIZE, "2", "custom fabric: spines"),
    opt("gbps", "N", U64, "100", "custom fabric: link rate in Gbit/s"),
    switch("pfc", "enable hop-by-hop PFC"),
    opt("transport", "T", Kind::Choice(&["sr", "gbn", "ideal"]), "sr", "NIC transport"),
    opt("ti", "US", U64, "900", "DCQCN rate-increase timer (set with --td)"),
    opt("td", "US", U64, "4", "DCQCN rate-decrease interval (set with --ti)"),
    opt("horizon-s", "S", U64, "10", "simulated-time horizon in seconds"),
];
const SIM_OUTPUT: &[Flag] = &[MB, switch("csv", "print one CSV row, not the summary")];

/// `themis_sim`.
#[rustfmt::skip]
pub static THEMIS_SIM: Cli = Cli {
    bin: "themis_sim",
    about: "run custom Themis experiments from the command line",
    commands: &[
        Command {
            name: "collective", about: "run a collective on a leaf-spine fabric", positionals: &[],
            groups: &[&[COLLECTIVE], ENGINE, SIM_FABRIC, SIM_OUTPUT, TELEMETRY_OUT],
        },
        Command {
            name: "p2p", about: "run one cross-rack flow", positionals: &[],
            groups: &[ENGINE, SIM_FABRIC, SIM_OUTPUT, TELEMETRY_OUT],
        },
        Command {
            name: "memory", about: "evaluate the section-4 ToR memory model", positionals: &[],
            groups: &[&[
                opt("paths", "N", USIZE, "256", "equal-cost paths"),
                opt("gbps", "N", U64, "400", "link rate in Gbit/s"),
                opt("rtt-us", "US", U64, "2", "last-hop RTT in us"),
                opt("mtu", "B", U32, "1500", "MTU in bytes"),
                opt("f100", "N", U32, "150", "queue expansion factor F x 100"),
                opt("nics", "N", USIZE, "16", "NICs under the ToR"),
                opt("qps", "N", USIZE, "100", "QPs per NIC"),
            ]],
        },
    ],
};

/// `themis_load`.
#[rustfmt::skip]
pub static THEMIS_LOAD: Cli = Cli {
    bin: "themis_load",
    about: "open-loop multi-tenant traffic engine over a fat-tree, oracle-audited",
    commands: &[Command {
        name: "", about: "", positionals: &[],
        groups: &[ENGINE, &[
            RADIX,
            opt("jobs", "N", USIZE, "150", "tenant jobs to sample"),
            opt("tenants", "N", USIZE, "16", "distinct tenants"),
            opt("mean-gap-us", "US", U64, "30", "mean inter-arrival gap"),
            switch("burst", "bursty (Markov-modulated) arrivals instead of Poisson"),
            opt("burst-len", "N", U64, "8", "expected jobs per burst"),
            opt("burst-factor", "N", U64, "8", "in-burst gap compression"),
            opt("cdf", "NAME", Kind::Choice(&FlowSizeCdf::NAMES), "websearch", "job size CDF"),
            opt("ranks-min", "N", USIZE, "2", "min ranks per job"),
            opt("ranks-max", "N", USIZE, "4", "max ranks per job"),
            opt("incast-every", "N", USIZE, "16", "every Nth job is an incast (0 = never)"),
            opt("incast-fanin", "N", USIZE, "6", "incast fan-in"),
            opt("max-kb", "N", U64, "256", "per-job byte clamp in KB"),
            WINDOW_US,
            opt("windows", "N", USIZE, "12", "number of windows (horizon = width x N)"),
            opt("evict-per-window", "N", USIZE, "0", "guarded evict_flow calls per window"),
            switch("no-require-complete", "tolerate jobs still running at the horizon"),
            opt("fault-plan", "FILE", Kind::Text, "", "install a themis-faultplan v1 file"),
            opt("windowed-telemetry", "PATH", Kind::Text, "", "write the windowed slice document"),
            TELEMETRY,
        ]],
    }],
};

/// `themis_serve`.
#[rustfmt::skip]
pub static THEMIS_SERVE: Cli = Cli {
    bin: "themis_serve",
    about: "sim-as-a-service: one warm fabric behind a verbs-shaped socket protocol",
    commands: &[Command {
        name: "", about: "", positionals: &[],
        groups: &[&[
            opt("socket", "PATH", Kind::Text, "themis_serve.sock", "Unix socket to listen on"),
            opt("tcp", "ADDR", Kind::Text, "", "listen on TCP instead (e.g. 127.0.0.1:7117)"),
            RADIX,
        ], ENGINE, &[
            WINDOW_US,
            opt("restore", "FILE", Kind::Text, "", "boot from a snapshot (config flags are ignored)"),
            opt("connect", "PATH|tcp:ADDR", Kind::Text, "",
                "scripted client: JSON requests on stdin, JSON replies on stdout"),
        ]],
    }],
};

/// `themis_fuzz`.
#[rustfmt::skip]
pub static THEMIS_FUZZ: Cli = Cli {
    bin: "themis_fuzz",
    about: "coverage-guided fault-scenario fuzzer for the protocol-invariant oracle",
    commands: &[Command {
        name: "", about: "", positionals: &[],
        groups: &[&[
            SEED.default("3405705229"),
            opt("budget", "N", U64, "300", "number of fuzz cases"),
            SCHEME,
            switch("blind", "no coverage guidance (case K is bit-identical to --only K)"),
            opt("collective", "C", Kind::Collective, "", "pin the collective (else sampled)"),
            opt("kb", "N", U64, "", "pin the per-group buffer in KB (else sampled 64..=512)"),
            opt("max-episodes", "N", USIZE, "5", "fault episodes per sampled plan"),
            SHARDS.default("1"),
            opt("emit-corpus", "DIR", Kind::Text, "", "write the minimized corpus and repros"),
            opt("min-features", "N", USIZE, "", "exit 1 below N distinct coverage features"),
            TRACE_LAST,
            switch("keep-going", "collect every failure; print a per-case summary"),
            opt("only", "K", U64, "", "re-run (only) blind case K"),
            opt("plan", "FILE", Kind::Text, "", "run one case with the fault plan in FILE"),
            opt("replay-corpus", "PATH", Kind::Text, "", "replay corpus case file(s)"),
        ]],
    }],
};

/// Every binary's table.
#[rustfmt::skip]
pub static ALL: [&Cli; 6] = [&FIG1, &FIG5, &THEMIS_SIM, &THEMIS_LOAD, &THEMIS_SERVE, &THEMIS_FUZZ];

// ---- the parser -----------------------------------------------------

/// Why a command line was rejected. Tokens are quoted as spelled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// A `-`-prefixed token the command's table does not declare.
    UnknownFlag(String),
    /// The first token names none of the binary's commands.
    UnknownCommand(String),
    /// The binary has commands and none was given.
    MissingCommand,
    /// A value flag at the end of argv or followed by another `--flag`.
    MissingValue(String),
    /// This flag's value does not parse as its [`Kind`].
    BadValue(String, String),
    /// This switch is followed by a token no positional accepts.
    SwitchTakesNoValue(String, String),
    /// A token no positional accepts.
    UnexpectedArgument(String),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::UnknownFlag(t) => write!(f, "unknown option '{t}'"),
            UsageError::UnknownCommand(t) => write!(f, "unknown command '{t}'"),
            UsageError::MissingCommand => write!(f, "missing command"),
            UsageError::MissingValue(t) => write!(f, "option '{t}' needs a value"),
            UsageError::BadValue(t, v) => write!(f, "invalid value '{v}' for option '{t}'"),
            UsageError::SwitchTakesNoValue(t, v) => {
                write!(f, "option '{t}' takes no value (got '{v}')")
            }
            UsageError::UnexpectedArgument(t) => write!(f, "unexpected argument '{t}'"),
        }
    }
}

/// What a well-formed command line asks for.
#[derive(Debug)]
pub enum Parsed {
    /// `--help` / `-h`: the usage text to print.
    Help(String),
    /// Run with these values.
    Run(Matches),
}

impl Cli {
    /// The command `args` selects and the arguments after its name.
    fn select<'a>(&'static self, args: &'a [String]) -> Option<(&'static Command, &'a [String])> {
        match self.commands {
            [only] if only.name.is_empty() => Some((only, args)),
            commands => {
                let (name, rest) = args.split_first()?;
                Some((commands.iter().find(|c| c.name == name)?, rest))
            }
        }
    }

    /// Parse `args` (argv without the program name) against the table.
    pub fn parse(&'static self, args: &[String]) -> Result<Parsed, UsageError> {
        let Some((command, rest)) = self.select(args) else {
            return match args.first().map(String::as_str) {
                None => Err(UsageError::MissingCommand),
                Some("help" | "--help" | "-h") => Ok(Parsed::Help(self.usage(None))),
                Some(t) => Err(UsageError::UnknownCommand(t.into())),
            };
        };
        if rest.iter().any(|t| t == "--help" || t == "-h") {
            return Ok(Parsed::Help(self.usage(Some(command))));
        }
        let mut given = Vec::new();
        let mut unfilled = command.positionals;
        let mut last_switch = None;
        let mut it = rest.iter();
        while let Some(tok) = it.next() {
            if tok.starts_with('-') {
                let flag = command.flags().find(|f| f.spelled(tok));
                let flag = flag.ok_or_else(|| UsageError::UnknownFlag(tok.clone()))?;
                last_switch = matches!(flag.kind, Kind::Switch).then_some(tok);
                let value = if last_switch.is_some() {
                    Value::Set
                } else {
                    let raw = it.next().filter(|v| !v.starts_with("--"));
                    let raw = raw.ok_or_else(|| UsageError::MissingValue(tok.clone()))?;
                    let value = flag.kind.parse(raw);
                    value.ok_or_else(|| UsageError::BadValue(tok.clone(), raw.clone()))?
                };
                given.push((flag.name, value));
                continue;
            }
            let mut slots = unfilled.iter().enumerate();
            match slots.find_map(|(i, p)| Some((i, p.name, p.kind.parse(tok)?))) {
                Some((i, name, value)) => {
                    unfilled = &unfilled[i + 1..];
                    last_switch = None;
                    given.push((name, value));
                }
                None => {
                    return Err(match last_switch {
                        Some(s) => UsageError::SwitchTakesNoValue(s.clone(), tok.clone()),
                        None => UsageError::UnexpectedArgument(tok.clone()),
                    })
                }
            }
        }
        Ok(Parsed::Run(Matches {
            cli: self,
            command,
            given,
        }))
    }

    /// [`Cli::parse`] for a `main`: hand it `std::env::args()`. Prints
    /// the usage and exits 0 on `--help`; prints the error and the usage
    /// to stderr and exits 2 on a [`UsageError`].
    pub fn parse_or_exit(&'static self, argv: impl Iterator<Item = String>) -> Matches {
        let args: Vec<String> = argv.skip(1).collect();
        match self.parse(&args) {
            Ok(Parsed::Run(m)) => m,
            Ok(Parsed::Help(text)) => {
                print!("{text}");
                std::process::exit(0);
            }
            Err(e) => self.fail(self.select(&args).map(|(c, _)| c), &e.to_string()),
        }
    }

    fn fail(&self, command: Option<&Command>, msg: &str) -> ! {
        eprint!("error: {msg}\n\n{}", self.usage(command));
        std::process::exit(2);
    }

    /// The usage text of one command, or of the whole binary.
    pub fn usage(&self, only: Option<&Command>) -> String {
        let mut out = format!("{} - {}\n", self.bin, self.about);
        for c in self.commands {
            if only.is_some_and(|o| o.name != c.name) {
                continue;
            }
            let mut synopsis = vec![self.bin.to_string(), c.name.to_string()];
            synopsis.extend(c.positionals.iter().map(|p| format!("[{}]", p.name)));
            synopsis.retain(|word| !word.is_empty());
            let head = format!("\nUSAGE: {} [OPTIONS]   {}", synopsis.join(" "), c.about);
            out += head.trim_end();
            out += "\n";
            for p in c.positionals {
                out += &p.usage(true);
            }
            for f in c.flags() {
                out += &f.usage(false);
            }
        }
        let help = switch("help", "print this help and exit").alias(&["-h"]);
        out += &help.usage(false);
        out + "\nEXIT STATUS: 0 success, 1 the run failed, 2 usage error\n"
    }
}

/// The values of one parsed command line. Getters take the flag's table
/// name and panic if the command's table has no such row, or not of the
/// kind read — that is a bug in the binary, not in its input.
#[derive(Debug)]
pub struct Matches {
    cli: &'static Cli,
    command: &'static Command,
    given: Vec<(S, Value)>,
}

impl Matches {
    /// Name of the selected command (empty without subcommands).
    pub fn command(&self) -> S {
        self.command.name
    }

    /// The table row called `name`.
    fn row(&self, name: &str) -> &'static Flag {
        let mut rows = self.command.positionals.iter().chain(self.command.flags());
        rows.find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{}: no '{name}' in the table", self.cli.bin))
    }

    /// Whether the flag appeared on the command line (a switch's value).
    pub fn given(&self, name: &str) -> bool {
        let name = self.row(name).name;
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The last value given on the command line, else the table default.
    fn value(&self, name: &str) -> Option<Value> {
        let flag = self.row(name);
        if let Some((_, v)) = self.given.iter().rev().find(|(n, _)| *n == name) {
            return Some(v.clone());
        }
        if flag.default.is_empty() || flag.default.starts_with('$') {
            return None;
        }
        let default = flag.kind.parse(flag.default);
        Some(default.unwrap_or_else(|| panic!("{}: bad default for '{name}'", self.cli.bin)))
    }

    /// A [`Kind::Uint`] / [`Kind::Shards`] flag, if given or defaulted.
    pub fn opt_num<T: TryFrom<u64>>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| match v {
            Value::Num(n) => T::try_from(n).unwrap_or_else(|_| panic!("'{name}': {n} overflows")),
            v => panic!("'{name}' is not numeric: {v:?}"),
        })
    }

    /// A numeric flag that has a table default.
    pub fn num<T: TryFrom<u64>>(&self, name: &str) -> T {
        self.opt_num(name)
            .unwrap_or_else(|| panic!("'{name}' has no default"))
    }

    /// A [`Kind::Text`] / [`Kind::Choice`] flag, if given or defaulted.
    pub fn text(&self, name: &str) -> Option<String> {
        self.value(name).map(|v| match v {
            Value::Text(s) => s,
            v => panic!("'{name}' is not text: {v:?}"),
        })
    }

    /// A [`Kind::Schemes`] (or [`Kind::Scheme`]) flag with a default.
    pub fn schemes(&self, name: &str) -> Vec<Scheme> {
        match self.value(name) {
            Some(Value::Schemes(s)) => s,
            v => panic!("'{name}' is not a defaulted scheme flag: {v:?}"),
        }
    }

    /// A [`Kind::Scheme`] flag with a default.
    pub fn scheme(&self, name: &str) -> Scheme {
        self.schemes(name)[0]
    }

    /// A [`Kind::Collective`] flag, if given or defaulted.
    pub fn collective(&self, name: &str) -> Option<Collective> {
        self.value(name).map(|v| match v {
            Value::Collective(c) => c,
            v => panic!("'{name}' is not a collective: {v:?}"),
        })
    }

    /// [`JOBS`], else 1 (clamped to at least 1).
    pub fn jobs(&self) -> usize {
        self.num::<usize>(JOBS.name).max(1)
    }

    /// [`SHARDS`], else its table default, else `THEMIS_SHARDS`, else 1.
    pub fn shards(&self) -> usize {
        let shards = self.opt_num(SHARDS.name);
        shards.unwrap_or_else(knobs::shards_from_env)
    }

    /// [`TELEMETRY`] and [`TRACE_LAST`].
    pub fn telemetry(&self) -> TelemetryArgs {
        TelemetryArgs {
            out: self.text(TELEMETRY.name),
            trace_last: self.opt_num(TRACE_LAST.name),
        }
    }

    /// Reject a combination of values the table cannot express: print
    /// the message and the command's usage to stderr and exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        self.cli.fail(Some(self.command), msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn run(cli: &'static Cli, line: &str) -> Matches {
        match cli.parse(&argv(line)) {
            Ok(Parsed::Run(m)) => m,
            other => panic!("{} {line}: {other:?}", cli.bin),
        }
    }

    fn err(cli: &'static Cli, line: &str) -> UsageError {
        match cli.parse(&argv(line)) {
            Err(e) => e,
            Ok(p) => panic!("{} {line} was accepted: {p:?}", cli.bin),
        }
    }

    fn help(cli: &'static Cli, line: &str) -> String {
        match cli.parse(&argv(line)) {
            Ok(Parsed::Help(text)) => text,
            other => panic!("{} {line}: {other:?}", cli.bin),
        }
    }

    #[test]
    fn defaults_come_from_the_table() {
        let m = run(&THEMIS_LOAD, "");
        assert_eq!(m.num::<usize>("jobs"), 150);
        assert_eq!(m.num::<u64>("window-us"), 500);
        assert_eq!(m.scheme("scheme"), Scheme::Themis);
        assert_eq!(m.text("cdf").as_deref(), Some("websearch"));
        assert_eq!(m.text("telemetry"), None);
        assert!(!m.given("jobs") && !m.given("burst"));
        assert_eq!(
            run(&FIG5, "").schemes("scheme"),
            [Scheme::Ecmp, Scheme::AdaptiveRouting, Scheme::Themis]
        );
        assert_eq!(run(&FIG5, "").num::<u64>("seed"), 1);
        assert_eq!(run(&THEMIS_SIM, "memory").num::<u64>("gbps"), 400);

        // themis_fuzz's table defaults are FuzzConfig's.
        let (m, cfg) = (
            run(&THEMIS_FUZZ, ""),
            crate::FuzzConfig::new(Scheme::Themis),
        );
        assert_eq!(m.num::<u64>("seed"), cfg.root_seed);
        assert_eq!(m.num::<u64>("budget"), cfg.budget);
        assert_eq!(m.num::<usize>("max-episodes"), cfg.max_episodes);
        assert_eq!(m.shards(), cfg.shards);
        assert_eq!(m.collective("collective"), cfg.collective);
        assert_eq!(m.opt_num::<u64>("kb"), cfg.kb);
    }

    #[test]
    fn every_default_parses_as_its_kind() {
        for cli in ALL {
            for c in cli.commands {
                for f in c.positionals.iter().chain(c.flags()) {
                    let env_fallback = f.default.starts_with('$');
                    assert!(
                        f.default.is_empty() || env_fallback || f.kind.parse(f.default).is_some(),
                        "{} --{}: default '{}'",
                        cli.bin,
                        f.name,
                        f.default
                    );
                    assert!(!env_fallback || f.name == SHARDS.name);
                }
            }
        }
    }

    #[test]
    fn values_spellings_and_last_wins() {
        let m = run(
            &FIG5,
            "alltoall 3 --schemes reps,zoo,reps -j 4 -s 2 --jobs 8",
        );
        assert_eq!(m.text("COLLECTIVE").as_deref(), Some("alltoall"));
        assert_eq!(m.opt_num::<u64>("MB"), Some(3));
        assert_eq!(m.jobs(), 8);
        assert_eq!(m.shards(), 2);
        let mut want = vec![Scheme::Reps];
        want.extend(Scheme::ZOO);
        want.push(Scheme::Reps);
        want.dedup();
        assert_eq!(m.schemes("scheme"), want);
        assert!(m.given("scheme") && !m.given("fat-tree"));

        let m = run(
            &THEMIS_SIM,
            "p2p --scheme ADAPTIVE --trace-last 8 --telemetry t.json",
        );
        assert_eq!(m.command(), "p2p");
        assert_eq!(m.scheme("scheme"), Scheme::AdaptiveRouting);
        let t = m.telemetry();
        assert_eq!((t.out.as_deref(), t.trace_last), (Some("t.json"), Some(8)));
        assert_eq!(
            run(&THEMIS_FUZZ, "--collective RingOnce").collective("collective"),
            Some(Collective::RingOnce)
        );
    }

    #[test]
    fn a_positional_fills_the_first_slot_that_accepts_it() {
        // `fig5 --fat-tree 1`: no collective token, the number is MB.
        let m = run(&FIG5, "--scheme zoo --fat-tree 1");
        assert!(m.given("fat-tree"));
        assert_eq!(m.opt_num::<u64>("MB"), Some(1));
        assert_eq!(m.text("COLLECTIVE").as_deref(), Some("allreduce"));
        assert_eq!(
            err(&FIG5, "8 alltoall"),
            UsageError::UnexpectedArgument("alltoall".into())
        );
        assert_eq!(run(&FIG1, "").num::<u64>("MB_PER_FLOW"), 25);
        assert_eq!(run(&FIG1, "--jobs 2 7").num::<u64>("MB_PER_FLOW"), 7);
    }

    #[test]
    fn jobs_and_shards_fall_back_and_clamp() {
        assert_eq!(run(&FIG1, "--jobs 0").jobs(), 1);
        let m = run(&THEMIS_SIM, "p2p --shards auto");
        assert_eq!(m.shards(), knobs::auto_shards());
        // Zero shards reaches validate() in themis_load / themis_serve.
        assert_eq!(run(&THEMIS_LOAD, "--shards 0").shards(), 0);
        assert_eq!(run(&FIG1, "").jobs(), 1);
        if std::env::var("THEMIS_SHARDS").is_err() {
            assert_eq!(run(&FIG1, "").shards(), 1);
        }
    }

    #[test]
    fn every_kind_of_usage_error_is_typed() {
        assert_eq!(
            err(&THEMIS_LOAD, "--sheme reps"),
            UsageError::UnknownFlag("--sheme".into())
        );
        assert_eq!(
            err(&THEMIS_LOAD, "--seed=5"),
            UsageError::UnknownFlag("--seed=5".into())
        );
        assert_eq!(
            err(&THEMIS_LOAD, "--seed"),
            UsageError::MissingValue("--seed".into())
        );
        assert_eq!(
            err(&THEMIS_LOAD, "--seed --jobs 5"),
            UsageError::MissingValue("--seed".into())
        );
        let bad = |flag: &str, value: &str| UsageError::BadValue(flag.into(), value.into());
        assert_eq!(err(&THEMIS_LOAD, "--jobs 2O"), bad("--jobs", "2O"));
        assert_eq!(err(&FIG1, "-j x"), bad("-j", "x"));
        assert_eq!(err(&THEMIS_SIM, "p2p --mb -1"), bad("--mb", "-1"));
        let too_wide = "memory --mtu 4294967296";
        assert_eq!(err(&THEMIS_SIM, too_wide), bad("--mtu", "4294967296"));
        assert_eq!(err(&THEMIS_SERVE, "--shards many"), bad("--shards", "many"));
        assert_eq!(
            err(&THEMIS_SIM, "p2p --fabric clos"),
            bad("--fabric", "clos")
        );
        assert_eq!(
            err(&FIG5, "--scheme ecmp,nope"),
            bad("--scheme", "ecmp,nope")
        );
        assert_eq!(err(&FIG5, "--scheme ,"), bad("--scheme", ","));
        assert_eq!(
            err(&THEMIS_LOAD, "--burst 5"),
            UsageError::SwitchTakesNoValue("--burst".into(), "5".into())
        );
        assert_eq!(
            err(&THEMIS_LOAD, "extra"),
            UsageError::UnexpectedArgument("extra".into())
        );
        assert_eq!(err(&THEMIS_SIM, ""), UsageError::MissingCommand);
        assert_eq!(
            err(&THEMIS_SIM, "bogus --mb 1"),
            UsageError::UnknownCommand("bogus".into())
        );
        // A flag another command owns is unknown here, not ignored.
        assert_eq!(
            err(&THEMIS_SIM, "memory --scheme reps"),
            UsageError::UnknownFlag("--scheme".into())
        );
    }

    #[test]
    fn help_is_rendered_from_the_table() {
        for cli in ALL {
            let text = cli.usage(None);
            assert_eq!(help(cli, "--help"), text);
            assert_eq!(help(cli, "-h"), text);
            assert!(text.contains("EXIT STATUS"), "{}", cli.bin);
            for c in cli.commands {
                let own = cli.usage(Some(c));
                for f in c.flags() {
                    let spelled = format!("\n  --{}", f.name);
                    assert!(own.contains(&spelled), "{} {}", cli.bin, f.name);
                    assert!(f.aliases.iter().all(|a| own.contains(a)));
                }
                assert!(c.positionals.iter().all(|p| own.contains(p.name)));
            }
        }
        // Help wins wherever it appears, and a command narrows it.
        assert_eq!(help(&FIG5, "alltoall --jobs --help"), FIG5.usage(None));
        assert_eq!(help(&THEMIS_SIM, "help"), THEMIS_SIM.usage(None));
        let collective = help(&THEMIS_SIM, "collective --mb 2 -h");
        assert!(collective.contains("--ti") && !collective.contains("--paths"));
        // Choices are generated from the enums, never typed by hand.
        let load = THEMIS_LOAD.usage(None);
        let schemes: Vec<_> = Scheme::ALL.iter().map(Scheme::cli_name).collect();
        assert!(load.contains(&schemes.join(" | ")), "{load}");
        assert!(load.contains(&FlowSizeCdf::NAMES.join(" | ")));
    }

    #[test]
    fn listed_choices_parse_back() {
        for c in COLLECTIVES {
            let name = c.label().to_ascii_lowercase();
            assert_eq!(Collective::parse(&name), Some(c));
        }
        for kind in [
            Kind::Scheme,
            Kind::Schemes,
            Kind::Collective,
            SIM_FABRIC[0].kind,
        ] {
            for choice in kind.choices().expect("closed set") {
                assert!(kind.parse(&choice).is_some(), "{choice}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no 'mb' in the table")]
    fn reading_a_flag_the_command_lacks_is_a_bug() {
        run(&THEMIS_SIM, "memory").num::<u64>("mb");
    }
}
