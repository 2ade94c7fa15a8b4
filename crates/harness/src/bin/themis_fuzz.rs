//! `themis_fuzz` — coverage-guided scenario fuzzer for the
//! protocol-invariant oracle.
//!
//! Runs fault plans and traffic mixes under the conformance oracle,
//! guided by coverage feedback (see `themis_harness::coverage`): cases
//! that light up new protocol reactions — NACK verdicts, drop causes,
//! RTO firings, scheme internals, PSN-wrap crossings — seed a corpus
//! that later cases mutate. On failure the fault plan is ddmin-shrunk to
//! a minimal reproducer before printing. Besides the fuzzing loop there
//! are three single-shot modes: `--only K` (re-run blind case K),
//! `--plan FILE` (one case under a given fault plan) and
//! `--replay-corpus PATH` (regression replay of corpus files).
//! `themis_fuzz --help` lists the options (table:
//! `themis_harness::cli::THEMIS_FUZZ`).
//!
//! Every mode is bit-reproducible: the same `(seed, budget, pins)`
//! fuzzes the same cases and emits the same corpus; `--seed S --only K`
//! replays blind case K exactly; corpus files replay bit-identically
//! for any `--shards`. Exits 1 when a case is not conformant or the
//! `--min-features` floor is missed.
//!
//! ```text
//! themis_fuzz --budget 200 --min-features 150
//! themis_fuzz --replay-corpus tests/corpus --shards 2
//! ```

use themis_harness::cli::{self, Matches};
use themis_harness::coverage::{
    derive_case, fuzz, CaseFailure, CorpusCase, FeatureMap, FuzzConfig, Mode,
};
use themis_harness::faults::FaultPlan;
use themis_harness::telemetry_out::dump_trace_last;
use themis_harness::Scheme;

fn fuzz_config(args: &Matches, run_scheme: Scheme, judge: Scheme) -> FuzzConfig {
    let mut cfg = FuzzConfig::new(run_scheme);
    cfg.judge = judge;
    cfg.root_seed = args.num("seed");
    cfg.budget = args.num("budget");
    cfg.collective = args.collective("collective");
    cfg.kb = args.opt_num("kb");
    cfg.max_episodes = args.num("max-episodes");
    cfg.shards = args.shards();
    cfg.mode = if args.given("blind") {
        Mode::Blind
    } else {
        Mode::Guided
    };
    cfg.minimize_corpus = args.given("emit-corpus");
    cfg.keep_going = args.given("keep-going");
    cfg
}

/// Print one failure with the minimal plan it was shrunk to. Only
/// `--trace-last` runs the case again, for its event ring.
fn report_failure(
    f: &CaseFailure,
    root_seed: u64,
    judge: Scheme,
    args: &Matches,
    blind_repro: bool,
) {
    let (case, k) = (&f.case, f.index);
    eprintln!("\n=== FAILURE: case {k} (seed {root_seed}) ===");
    eprintln!(
        "scheme {} collective {} kb {} plan: {} event(s)",
        case.scheme.label(),
        case.collective.label(),
        case.kb,
        case.plan.len()
    );
    for v in &f.violations {
        eprintln!("  violation {v}");
    }
    eprintln!(
        "minimal fault plan ({} of {} event(s), {} shrink run(s)):",
        f.minimal_plan.len(),
        case.plan.len(),
        f.shrink_runs
    );
    eprint!("{}", f.minimal_plan.to_text());
    eprintln!("violations under the minimal plan:");
    for v in &f.minimal_violations {
        eprintln!("  {v}");
    }
    if blind_repro {
        eprintln!("repro: themis_fuzz --seed {root_seed} --only {k}");
    } else {
        // Guided cases depend on the corpus history, so `--only K` does
        // not reproduce them; the self-contained corpus text does.
        eprintln!("repro (save as case.txt; themis_fuzz --replay-corpus case.txt):");
        eprint!("{}", case.to_text());
    }
    if let Some(n) = args.opt_num("trace-last") {
        let (result, _) = case.run_with(&case.plan, judge, args.shards());
        dump_trace_last(&format!("fuzz-case-{k}"), &result.telemetry, n);
    }
}

/// Replay every corpus case file under `path` (a `.txt` file or a
/// directory of them), serially deterministic: files are visited in
/// sorted name order. Returns the number of failing cases.
fn replay_corpus(path: &str, shards: usize) -> u64 {
    let meta = std::fs::metadata(path).unwrap_or_else(|e| {
        eprintln!("cannot stat {path}: {e}");
        std::process::exit(2);
    });
    let mut files = Vec::new();
    if meta.is_dir() {
        for entry in std::fs::read_dir(path).expect("read_dir") {
            let p = entry.expect("dir entry").path();
            if p.extension().is_some_and(|e| e == "txt") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.into());
    }
    if files.is_empty() {
        eprintln!("no corpus case files (*.txt) under {path}");
        std::process::exit(2);
    }
    let mut failures = 0;
    let mut features = FeatureMap::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read corpus case");
        let case = CorpusCase::from_text(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {}: {e}", file.display());
            std::process::exit(2);
        });
        let (result, violations) = case.run(shards);
        features.observe(&result, &violations);
        if violations.is_empty() {
            println!(
                "replay {}: ok (scheme {}, {} event(s), sim end {} ns)",
                file.display(),
                case.scheme.label(),
                case.plan.len(),
                result.sim_end.as_nanos()
            );
        } else {
            failures += 1;
            eprintln!("replay {}: FAILED", file.display());
            for v in &violations {
                eprintln!("  violation {v}");
            }
        }
    }
    println!(
        "themis_fuzz --replay-corpus: {} case(s), {} distinct feature(s), {failures} failing",
        files.len(),
        features.len()
    );
    failures
}

fn main() {
    let args = cli::THEMIS_FUZZ.parse_or_exit(std::env::args());
    let root_seed: u64 = args.num("seed");
    let scheme = args.scheme("scheme");

    // Fault-seeded builds for the acceptance demo: the run uses a
    // deliberately weakened scheme while the oracle still judges against
    // the nominal one, so the weakness must surface as a violation.
    let run_scheme = match std::env::var("THEMIS_FUZZ_BREAK").as_deref() {
        Ok("nocomp") => Scheme::ThemisNoCompensation,
        Ok("nofilter") => Scheme::SprayNoFilter,
        _ => scheme,
    };

    // Corpus regression mode: replay checked-in case files verbatim.
    if let Some(path) = args.text("replay-corpus") {
        let failures = replay_corpus(&path, args.shards());
        std::process::exit(if failures > 0 { 1 } else { 0 });
    }

    let cfg = fuzz_config(&args, run_scheme, scheme);

    // Single-case mode with an explicit plan file (shrinker output).
    if let Some(path) = args.text("plan") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let plan = FaultPlan::from_text(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        });
        let k: u64 = args.opt_num("only").unwrap_or(0);
        let mut rng = simcore::rng::Xoshiro256::substream(root_seed, k);
        let mut case = derive_case(&mut rng, &cfg);
        case.plan = plan;
        let (result, violations) = case.run_with(&case.plan, scheme, cfg.shards);
        if violations.is_empty() {
            println!(
                "plan {path}: conformant (sim end {} ns, {} events)",
                result.sim_end.as_nanos(),
                result.events
            );
        } else {
            let f = CaseFailure::shrink(k, &case, &violations, scheme, cfg.shards);
            report_failure(&f, root_seed, scheme, &args, true);
            std::process::exit(1);
        }
        return;
    }

    // Repro mode: one blind case, bit-identical to the same K of a blind
    // (or historical) fuzzing run.
    if let Some(k) = args.opt_num::<u64>("only") {
        let mut rng = simcore::rng::Xoshiro256::substream(root_seed, k);
        let case = derive_case(&mut rng, &cfg);
        let (_, violations) = case.run_with(&case.plan, scheme, cfg.shards);
        if violations.is_empty() {
            println!("case {k}: conformant ({} event(s))", case.plan.len());
            return;
        }
        let f = CaseFailure::shrink(k, &case, &violations, scheme, cfg.shards);
        report_failure(&f, root_seed, scheme, &args, true);
        std::process::exit(1);
    }

    let wall = std::time::Instant::now();
    let report = fuzz(&cfg);

    // Persist the corpus (and failing repros) as versioned case files.
    let mut failure_paths: Vec<Option<std::path::PathBuf>> = vec![None; report.failures.len()];
    if let Some(dir) = args.text("emit-corpus") {
        std::fs::create_dir_all(&dir).expect("create corpus dir");
        for (i, case) in report.corpus.iter().enumerate() {
            let path = std::path::Path::new(&dir).join(format!("case-{i:03}.txt"));
            std::fs::write(&path, case.to_text()).expect("write corpus case");
        }
        for (i, f) in report.failures.iter().enumerate() {
            let minimal = CorpusCase {
                plan: f.minimal_plan.clone(),
                ..f.case.clone()
            };
            let path = std::path::Path::new(&dir).join(format!("fail-{:03}.txt", f.index));
            std::fs::write(&path, minimal.to_text()).expect("write failure case");
            failure_paths[i] = Some(path);
        }
        println!(
            "emitted {} corpus case(s) and {} failure repro(s) to {dir}",
            report.corpus.len(),
            report.failures.len()
        );
    }

    for (i, f) in report.failures.iter().enumerate() {
        report_failure(f, root_seed, scheme, &args, cfg.mode == Mode::Blind);
        if let Some(p) = &failure_paths[i] {
            eprintln!("repro file: {}", p.display());
        }
    }
    if report.failures.len() > 1 || (!report.failures.is_empty() && cfg.keep_going) {
        eprintln!(
            "\n=== failure summary ({} case(s)) ===",
            report.failures.len()
        );
        for (i, f) in report.failures.iter().enumerate() {
            let mut kinds: Vec<&str> = f
                .minimal_violations
                .iter()
                .map(|v| v.split(']').next().unwrap_or("[?").trim_start_matches('['))
                .collect();
            kinds.sort_unstable();
            kinds.dedup();
            let path = failure_paths[i]
                .as_ref()
                .map_or_else(|| "-".to_string(), |p| p.display().to_string());
            eprintln!(
                "  case {:>4}  [{}]  {} minimal event(s)  {}",
                f.index,
                kinds.join(", "),
                f.minimal_plan.len(),
                path
            );
        }
    }

    println!(
        "themis_fuzz ({}): {} case(s), {} distinct fault plan(s), {} coverage feature(s), \
         {} corpus case(s), {} failing, {:.1}s wall",
        if cfg.mode == Mode::Guided {
            "guided"
        } else {
            "blind"
        },
        report.cases,
        report.distinct_plans,
        report.features.len(),
        report.corpus.len(),
        report.failures.len(),
        wall.elapsed().as_secs_f64()
    );

    if let Some(n) = args.opt_num::<usize>("min-features") {
        if report.features.len() < n {
            eprintln!(
                "coverage floor missed: {} feature(s) < required {n}",
                report.features.len()
            );
            std::process::exit(1);
        }
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
