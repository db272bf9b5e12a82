//! `specee` — command-line front end for the SpecEE reproduction.
//!
//! ```text
//! specee info                         # model / hardware / dataset tables
//! specee generate [OPTIONS]           # decode with a chosen engine
//! specee train [OPTIONS]              # offline predictor training (§7.4.4)
//! specee serve [OPTIONS]              # continuous-batching simulation
//! ```
//!
//! Every run is deterministic for a fixed `--seed`. Each flag is one row
//! of [`FLAGS`]: the subcommands that take it, its default and its help.

use std::collections::HashMap;
use std::process::ExitCode;

use specee::batch::{Admission, BatchedEngine};
use specee::cluster::{Cluster, ClusterConfig, ClusterRequest, RouterPolicy};
use specee::control::{ControllerPolicy, ControllerSummary};
use specee::core::collect::{
    collect_training_data, train_bank, BankTrainingReport, CollectionReport,
};
use specee::core::engine::DenseEngine;
use specee::core::predictor::PredictorBank;
use specee::core::skip_layer::{calibrate_calm_threshold, CalmEngine};
use specee::core::{agreement, GenOutput, ScheduleEngine, SpecEeConfig};
use specee::draft::{NoDraft, SelfDraft, SelfDraftSpec, SpeculativeSource, TreeShape};
use specee::metrics::{FrameworkProfile, HardwareProfile, Roofline};
use specee::model::{ModelConfig, TokenId};
use specee::nn::TrainConfig;
use specee::obs::{
    chrome_trace_json, fold_dropped_events, fold_events, fold_meter, fold_roofline,
    prometheus_text, Event, MetricsRegistry, Recorder, SloSpec,
};
use specee::serve::{BatcherConfig, ContinuousBatcher, PoissonArrivals, ServeStats};
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::rng::Pcg;

/// What runs a subcommand on its parsed flags.
type Run = fn(&Opts) -> Result<(), String>;

/// The subcommands that take flags: `(name, what it does, what runs it)`.
#[rustfmt::skip]
const COMMANDS: [(&str, &str, Run); 3] = [
    ("generate", "decode a prompt with a chosen engine",                       cmd_generate),
    ("train",    "offline predictor pipeline: samples and predictor accuracy", cmd_train),
    ("serve",    "continuous batching on the lock-step batched engine",        cmd_serve),
];

const ALL: &[&str] = &["generate", "train", "serve"];
const GENERATE: &[&str] = &["generate"];
const TRAIN: &[&str] = &["train"];
const SERVE: &[&str] = &["serve"];
const BOTH: &[&str] = &["generate", "serve"];

/// One row of [`FLAGS`].
type Flag = (
    &'static str,
    &'static [&'static str],
    Option<&'static str>,
    &'static str,
);

/// Every flag, in the order a subcommand lists them: `(name, the
/// subcommands that take it, its default, its help line)`. [`parse_opts`]
/// checks a command line against it and fills in the defaults (a flag
/// without one is absent unless given); [`print_help`] prints it.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("model",        ALL,      Some("7b"),          "model preset: 7b, 13b, 70b or tiny"),
    ("dataset",      ALL,      Some("QA"),          "dataset profile, one of those `specee info` lists"),
    ("seed",         ALL,      Some("2025"),        "seed of every random draw"),
    ("tokens",       GENERATE, Some("24"),          "tokens to decode"),
    ("engine",       GENERATE, Some("specee"),      "dense, specee or calm"),
    ("batch",        SERVE,    Some("8"),           "batch cap (per worker in cluster mode)"),
    ("requests",     SERVE,    Some("12"),          "requests to serve"),
    ("rate",         SERVE,    Some("6"),           "Poisson arrival rate, requests per second"),
    ("mode",         SERVE,    Some("live"),        "live (one lock-step batched engine) or cluster (worker threads)"),
    ("workers",      SERVE,    Some("2"),           "cluster worker threads"),
    ("router",       SERVE,    Some("round-robin"), "cluster routing: round-robin, shortest-queue or exit-aware"),
    ("controller",   BOTH,     None,                "online exit thresholds: static|pid|bandit[:key=value,…]; slo+… on serve"),
    ("draft",        GENERATE, None,                "self:exit=N,tree=AxBxC: the first N layers draft a token tree a round"),
    ("slo",          SERVE,    None,                "objectives, e.g. p99_ttft=0.25,false_exit_rate=0.1; wraps --controller"),
    ("pages",        SERVE,    Some("0"),           "cap on each engine's KV pages, 0 for none; parks residents under pressure"),
    ("prefix-share", SERVE,    Some("off"),         "on: lease matching prompt-prefix pages copy-on-write"),
    ("lanes",        SERVE,    Some("0"),           "priority lanes: request id mod N, lower first; 0 for one lane"),
    ("out",          TRAIN,    None,                "write the trained predictor bank as JSON"),
    ("trace-out",    BOTH,     None,                "write the event timeline as Chrome trace JSON (Perfetto)"),
    ("metrics-out",  BOTH,     None,                "write counters, gauges and histograms as Prometheus text"),
    ("trace-sample", BOTH,     Some("1"),           "keep a deterministic 1-in-N of each event kind"),
];

/// A subcommand's flags by name, defaults filled in.
type Opts = HashMap<&'static str, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print_help();
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "info" => cmd_info(),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => match COMMANDS.iter().find(|(name, ..)| *name == other) {
            Some((name, _, run)) => parse_opts(name, &args[1..]).and_then(|opts| run(&opts)),
            None => Err(format!("unknown command `{other}` (try `specee help`)")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The rows of [`FLAGS`] `command` takes.
fn flags_of(command: &str) -> impl Iterator<Item = &'static Flag> + '_ {
    FLAGS
        .iter()
        .filter(move |(_, on, ..)| on.contains(&command))
}

fn print_help() {
    println!(
        "specee — speculative early exiting for LLM inference (ISCA 2025 reproduction)\n\n\
         USAGE: specee <COMMAND> [OPTIONS]\n\n\
         COMMANDS:\n  \
           info       list model presets, dataset profiles and hardware targets\n  \
           help       this message"
    );
    for (command, about, _) in COMMANDS {
        println!("\nspecee {command} [OPTIONS]  {about}");
        for (name, _, default, help) in flags_of(command) {
            let default = default
                .map(|d| format!(" [default: {d}]"))
                .unwrap_or_default();
            println!("  {:<16}{help}{default}", format!("--{name}"));
        }
    }
    println!(
        "\nEvery run is deterministic for a fixed --seed, and recording is a pure\n\
         observer: traced runs decode bit-identically to untraced runs."
    );
}

/// Parses `command`'s `--key value` options against [`FLAGS`] and fills in
/// the defaults. Anything else on the command line — a flag `command` does
/// not take (a typo, another subcommand's), a word that is neither a flag
/// nor a flag's value — is a usage error naming the flags it does take.
fn parse_opts(command: &str, args: &[String]) -> Result<Opts, String> {
    let mut opts: Opts = flags_of(command)
        .filter_map(|&(name, _, default, _)| Some((name, default?.to_string())))
        .collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a
            .strip_prefix("--")
            .and_then(|key| flags_of(command).find(|(name, ..)| *name == key));
        let Some(&(key, ..)) = flag else {
            let what = if a.starts_with("--") {
                "unknown flag"
            } else {
                "unexpected argument"
            };
            let takes: Vec<String> = flags_of(command)
                .map(|(name, ..)| format!("--{name}"))
                .collect();
            return Err(format!(
                "{what} `{a}`: `specee {command}` takes {}",
                takes.join(", ")
            ));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("--{key} expects a value"))?;
        opts.insert(key, value.clone());
    }
    Ok(opts)
}

/// `--trace-sample N`: keep a deterministic 1-in-N of each event kind
/// (per-kind counters, so rare kinds are not starved by frequent ones).
/// Drops are counted and exported as
/// `specee_trace_dropped_events_total`. `1` keeps everything.
fn parse_trace_sample(opts: &Opts) -> Result<u32, String> {
    let n: u32 = parse_num(opts, "trace-sample")?;
    if n == 0 {
        return Err("--trace-sample must be at least 1 (N keeps 1-in-N events per kind)".into());
    }
    Ok(n)
}

/// Writes the requested exports: the event timeline as Chrome trace-event
/// JSON (open in Perfetto or `chrome://tracing`) and the metrics registry
/// as Prometheus text exposition.
fn write_exports(
    trace_out: Option<&String>,
    metrics_out: Option<&String>,
    events: &[Event],
    registry: &MetricsRegistry,
) -> Result<(), String> {
    if let Some(path) = trace_out {
        std::fs::write(path, chrome_trace_json(events))
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
        println!(
            "trace  : {} events -> {path} (open in Perfetto / chrome://tracing)",
            events.len()
        );
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, prometheus_text(registry))
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
        println!("metrics: -> {path} (Prometheus text exposition)");
    }
    Ok(())
}

fn model_by_name(name: &str) -> Result<ModelConfig, String> {
    match name {
        "7b" => Ok(ModelConfig::sim_llama2_7b()),
        "13b" => Ok(ModelConfig::sim_llama2_13b()),
        "70b" => Ok(ModelConfig::sim_llama2_70b()),
        "tiny" => Ok(ModelConfig::tiny()),
        other => Err(format!("unknown model `{other}` (7b, 13b, 70b, tiny)")),
    }
}

fn dataset_by_name(name: &str) -> Result<DatasetProfile, String> {
    DatasetProfile::all()
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<String> = DatasetProfile::all()
                .iter()
                .map(|p| p.name.clone())
                .collect();
            format!("unknown dataset `{name}` (one of: {})", names.join(", "))
        })
}

/// `--key on|off` boolean flags.
fn parse_switch(opts: &Opts, key: &str) -> Result<bool, String> {
    match opts[key].as_str() {
        "off" => Ok(false),
        "on" => Ok(true),
        v => Err(format!("--{key}: expected on|off, got `{v}`")),
    }
}

/// Parses flag `key`, which has a default in [`FLAGS`].
fn parse_num<T: std::str::FromStr>(opts: &Opts, key: &str) -> Result<T, String> {
    let v = &opts[key];
    v.parse().map_err(|_| format!("--{key}: bad value `{v}`"))
}

#[derive(Clone)]
struct Pipeline {
    cfg: ModelConfig,
    profile: DatasetProfile,
    seed: u64,
    /// The model, built once per invocation and never stepped: every
    /// [`Pipeline::lm`] is a clone of it (fresh KV, script and noise
    /// stream; the one weight set shared).
    template: SyntheticLm,
}

impl Pipeline {
    fn from_opts(opts: &Opts) -> Result<Self, String> {
        let cfg = model_by_name(&opts["model"])?;
        let profile = dataset_by_name(&opts["dataset"])?;
        let seed = parse_num(opts, "seed")?;
        let template = SyntheticLmBuilder::new(cfg.clone(), profile.clone())
            .seed(seed)
            .build();
        Ok(Pipeline {
            cfg,
            profile,
            seed,
            template,
        })
    }

    fn lm(&self) -> SyntheticLm {
        self.template.clone()
    }

    fn draft(&self) -> OracleDraft {
        OracleDraft::new(
            *self.template.language(),
            self.profile.hit_rate,
            &self.cfg,
            self.seed ^ 0xd,
        )
    }

    fn prompts(&self, n: usize, gen: usize) -> Vec<(Vec<TokenId>, usize)> {
        let language = self.template.language();
        (0..n)
            .map(|i| {
                let start = (self.seed as u32 + i as u32 * 7) % self.cfg.vocab_size as u32;
                let prompt = language.sample_sequence(start, PROMPT_LEN, self.seed ^ i as u64);
                (prompt, gen)
            })
            .collect()
    }

    /// The offline pipeline every decoding subcommand runs and `train`
    /// reports: collect exit samples over six prompts, then train the
    /// predictor bank on them.
    fn trained_bank(&self) -> (PredictorBank, CollectionReport, BankTrainingReport) {
        let mut lm = self.lm();
        let mut draft = self.draft();
        let prompts = self.prompts(6, 16);
        let data = collect_training_data(&mut lm, &mut draft, &prompts, 4);
        let config = SpecEeConfig::default();
        let mut bank = PredictorBank::new(
            self.cfg.n_layers,
            &config.predictor,
            &mut Pcg::seed(self.seed),
        );
        let report = train_bank(
            &mut bank,
            &data.samples,
            1.0,
            &TrainConfig {
                epochs: 16,
                lr: 3e-3,
                ..TrainConfig::default()
            },
            self.seed,
        );
        (bank, data, report)
    }
}

fn cmd_info() -> Result<(), String> {
    println!("models (executed dims, metered at full scale):");
    for name in ["7b", "13b", "70b"] {
        let cfg = model_by_name(name)?;
        let cost = cfg.cost.expect("sim presets carry cost twins");
        println!(
            "  {:<14} {} layers, hidden {} (metered {}), vocab {} (metered {}), ~{:.1} GB f16",
            cfg.name,
            cfg.n_layers,
            cfg.hidden_dim,
            cost.hidden_dim,
            cfg.vocab_size,
            cost.vocab_size,
            cost.weight_bytes_total() / 1e9
        );
    }
    println!("\ndataset profiles:");
    for p in DatasetProfile::all() {
        println!("  {:<16} draft hit rate {:.2}", p.name, p.hit_rate);
    }
    println!("\nhardware targets:");
    for hw in [
        HardwareProfile::a100_80g(),
        HardwareProfile::rtx4090(),
        HardwareProfile::rtx4060_laptop(),
        HardwareProfile::cpu_i7_13650hx(),
    ] {
        println!(
            "  {:<28} {:>6.1} TFLOP/s, {:>7.1} GB/s, TDP {:.0} W",
            hw.name,
            hw.peak_flops / 1e12,
            hw.mem_bw / 1e9,
            hw.tdp_w
        );
    }
    Ok(())
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let pipe = Pipeline::from_opts(opts)?;
    let tokens: usize = parse_num(opts, "tokens")?;
    let engine_name = opts["engine"].as_str();
    if !matches!(engine_name, "dense" | "specee" | "calm") {
        return Err(format!(
            "unknown engine `{engine_name}` (dense, specee, calm)"
        ));
    }
    let controller = parse_controller(opts)?;
    if controller.is_some() && engine_name != "specee" {
        return Err("--controller requires --engine specee".to_string());
    }
    if matches!(controller, Some(ControllerPolicy::SloAdaptive(_))) {
        return Err(
            "slo+ controllers bend thresholds from the serve-tier SLO tracker; \
             generate has no request timing (use `serve --mode live|cluster --slo …`)"
                .to_string(),
        );
    }
    let self_draft = match opts.get("draft") {
        None => None,
        Some(spec) => Some(parse_draft_spec(spec)?),
    };
    if let Some(spec) = &self_draft {
        if engine_name != "specee" {
            return Err(
                "--draft requires --engine specee (self-draft speculates through \
                 the target's own shallow layers)"
                    .to_string(),
            );
        }
        if controller.is_some() {
            return Err(
                "--draft does not compose with --controller: self-draft verifies \
                 every token at full depth, so there are no exit thresholds to steer"
                    .to_string(),
            );
        }
        spec.validate_for_depth(pipe.cfg.n_layers)
            .map_err(|e| format!("--draft: {e}"))?;
    }
    let trace_sample = parse_trace_sample(opts)?;
    let (trace_out, metrics_out) = (opts.get("trace-out"), opts.get("metrics-out"));
    let observing = trace_out.is_some() || metrics_out.is_some();
    if observing && engine_name != "specee" {
        return Err(
            "--trace-out/--metrics-out record the exit-scan event stream; \
             they require --engine specee"
                .to_string(),
        );
    }
    if tokens == 0 {
        // The engines require a positive decode length; zero tokens is a
        // valid request with an empty completion.
        println!("engine        : {engine_name} on {}", pipe.cfg.name);
        println!("dataset       : {}", pipe.profile.name);
        println!("tokens        : [] (0 requested)");
        println!("exit layers   : []");
        return Ok(());
    }

    let language = pipe.template.language();
    let prompt = language.sample_sequence(5, 12, pipe.seed ^ 0x9e);
    let n_layers = pipe.cfg.n_layers;
    let recorder = observing.then(|| Recorder::new().with_sample_every(trace_sample));
    let (out, recorder, controller_summary) = match (engine_name, &self_draft) {
        ("dense", _) => (
            DenseEngine::new(pipe.lm()).generate(&prompt, tokens),
            None,
            None,
        ),
        ("calm", _) => {
            let mut calib = pipe.lm();
            let prompts = pipe.prompts(4, 12);
            let thr = calibrate_calm_threshold(&mut calib, &prompts);
            let out = CalmEngine::new(pipe.lm(), thr).generate(&prompt, tokens);
            (out, None, None)
        }
        // Self-speculative drafting: the target's own shallow layers draft
        // a token tree per round, verified in one batched full-depth
        // sweep. It never consults exit predictors or the layer schedule,
        // so an untrained bank and every layer suffice.
        (_, Some(spec)) => {
            let config = SpecEeConfig::default();
            let bank = PredictorBank::new(
                n_layers,
                &config.predictor,
                &mut Pcg::seed(pipe.seed ^ 0x5d),
            );
            let seat = (bank, ScheduleEngine::all_layers(n_layers));
            let draft = SelfDraft::new(spec.clone());
            generate_batch1(&pipe, seat, None, draft, recorder, &prompt, tokens)
        }
        (_, None) => {
            let (bank, data, _) = pipe.trained_bank();
            let schedule =
                SpecEeConfig::default().build_schedule(n_layers, Some(&data.exit_frequencies));
            let seat = (bank, schedule);
            let draft = pipe.draft();
            generate_batch1(
                &pipe,
                seat,
                controller.as_ref(),
                draft,
                recorder,
                &prompt,
                tokens,
            )
        }
    };
    let dropped = recorder.as_ref().map_or(0, |r| r.dropped_events());
    let events = recorder.map(|r| r.into_events()).unwrap_or_default();

    let dense = DenseEngine::new(pipe.lm()).generate(&prompt, tokens);
    let cost = Roofline::with_framework(
        HardwareProfile::a100_80g(),
        FrameworkProfile::hugging_face(),
    )
    .cost(&out.meter);
    println!("engine        : {engine_name} on {}", pipe.cfg.name);
    println!("dataset       : {}", pipe.profile.name);
    println!("tokens        : {:?}", out.tokens);
    println!("exit layers   : {:?}", out.exit_layers);
    println!("avg layers    : {:.2} / {n_layers}", out.avg_layers());
    println!(
        "agreement     : {:.1}% vs dense",
        agreement(&out.tokens, &dense.tokens) * 100.0
    );
    println!(
        "modelled tok/s: {:.2} @ A100/HuggingFace",
        cost.tokens_per_s()
    );
    if let Some(summary) = &controller_summary {
        println!("controller    : {}", controller_line(summary));
    }
    if let Some(spec) = &self_draft {
        let shape = spec
            .shape
            .branching()
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("x");
        println!(
            "self-draft    : exit {} of {n_layers} layers, tree {shape} | \
             {} shallow layer-runs, {} verify rounds",
            spec.exit_layer, out.self_draft_calls, out.rounds
        );
    }
    if observing {
        let mut registry = MetricsRegistry::new();
        fold_events(&mut registry, &events);
        fold_dropped_events(&mut registry, dropped);
        fold_meter(&mut registry, &out.meter);
        fold_roofline(&mut registry, &cost);
        write_exports(trace_out, metrics_out, &events, &registry)?;
    }
    Ok(())
}

/// Decodes one prompt on a batch-1 [`BatchedEngine`] seated with `bank`
/// and `schedule`, closing the threshold loop after every token when a
/// controller is given, and reports it in the single-stream shape with the
/// recorder and the controller's summary handed back. Every
/// `generate --engine specee` run is one of these.
fn generate_batch1<D: SpeculativeSource>(
    pipe: &Pipeline,
    (bank, schedule): (PredictorBank, ScheduleEngine),
    controller: Option<&ControllerPolicy>,
    draft: D,
    recorder: Option<Recorder>,
    prompt: &[TokenId],
    tokens: usize,
) -> (GenOutput, Option<Recorder>, Option<ControllerSummary>) {
    let config = SpecEeConfig::default();
    let base = config.predictor.threshold;
    let n_predictors = bank.len();
    let mut engine = BatchedEngine::new(1, 16, pipe.cfg.n_layers, bank, schedule, config);
    if let Some(policy) = controller {
        engine.set_controller(policy.build_classed(n_predictors, base));
    }
    // A self-draft step is one verify round; the exit scan has none.
    let self_draft = draft.self_spec().is_some();
    engine.set_recorder(recorder);
    let out = match engine.admit(0, pipe.lm(), draft, prompt, tokens) {
        Admission::Done(out) => out,
        Admission::Seated { .. } => {
            // No simulated clock at batch 1: each step is stamped with the
            // tokens emitted before it, as the single-stream engine stamps
            // a token.
            let mut emitted = 1;
            loop {
                if let Some(rec) = engine.recorder_mut() {
                    rec.set_clock(emitted as f64);
                }
                let mut step = engine.step();
                emitted += step.emitted;
                if let Some(out) = step.finished.pop() {
                    break out;
                }
            }
        }
    };
    let out = GenOutput {
        tokens: out.tokens,
        exit_layers: out.exit_layers,
        ce_sum: out.ce_sum,
        meter: engine.meter().clone(),
        predictor_calls: out.predictor_calls,
        verify_calls: out.verify_calls,
        rounds: if self_draft { out.verify_calls } else { 0 },
        draft_calls: out.draft_calls,
        self_draft_calls: out.self_draft_calls,
    };
    (out, engine.take_recorder(), engine.controller_summary())
}

/// `--controller SPEC` (absent means no controller).
fn parse_controller(opts: &Opts) -> Result<Option<ControllerPolicy>, String> {
    match opts.get("controller") {
        None => Ok(None),
        Some(spec) => ControllerPolicy::parse(spec).map(Some),
    }
}

/// Parses a `--draft` spec: a draft kind with inline knobs,
/// `self:exit=N,tree=AxBxC` — e.g. `self:exit=8,tree=3x2x2` drafts a
/// 3-wide root level with two binary levels below it through the
/// target's first 8 layers. Every malformed spec yields an error naming
/// the offending fragment and the knobs the kind accepts.
fn parse_draft_spec(spec: &str) -> Result<SelfDraftSpec, String> {
    let (kind, knobs) = match spec.split_once(':') {
        Some((kind, rest)) => (kind, rest),
        None => (spec, ""),
    };
    if kind != "self" {
        return Err(format!(
            "unknown draft kind `{kind}` (only `self`, e.g. `self:exit=8,tree=3x2x2`)"
        ));
    }
    if knobs.is_empty() {
        return Err(format!(
            "draft spec `{spec}` needs `exit=N,tree=AxBxC` knobs \
             (e.g. `self:exit=8,tree=3x2x2`)"
        ));
    }
    let mut exit: Option<usize> = None;
    let mut shape: Option<Vec<usize>> = None;
    for knob in knobs.split(',') {
        let (key, value) = knob
            .split_once('=')
            .ok_or_else(|| format!("draft knob `{knob}` is not key=value (in `{spec}`)"))?;
        match key {
            "exit" => {
                let n = value
                    .parse::<usize>()
                    .map_err(|_| format!("draft knob `exit`: bad layer index `{value}`"))?;
                if n == 0 {
                    return Err("draft knob `exit` must be at least 1 (the shallow \
                         draft pass needs a layer to run)"
                        .to_string());
                }
                exit = Some(n);
            }
            "tree" => {
                let levels = value
                    .split('x')
                    .map(|b| {
                        b.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                            format!(
                                "draft knob `tree`: bad branching factor `{b}` in \
                                 `{value}` (positive integers joined by `x`, e.g. 3x2x2)"
                            )
                        })
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
                shape = Some(levels);
            }
            _ => return Err(format!("unknown draft knob `{key}` (exit, tree)")),
        }
    }
    let exit = exit.ok_or_else(|| format!("draft spec `{spec}` is missing `exit=N`"))?;
    let shape = shape.ok_or_else(|| format!("draft spec `{spec}` is missing `tree=AxBxC`"))?;
    Ok(SelfDraftSpec::new(exit, TreeShape::new(shape)))
}

/// One-line controller summary for CLI output.
fn controller_line(summary: &ControllerSummary) -> String {
    let false_exit = summary
        .false_exit_rate()
        .map(|r| format!(", false-exit {:.0}%", r * 100.0))
        .unwrap_or_default();
    format!(
        "{} | mean threshold {:.3} | {} fires ({} accept / {} reject{false_exit})",
        summary.policy,
        summary.mean_threshold,
        summary.accepts + summary.rejects,
        summary.accepts,
        summary.rejects,
    )
}

fn cmd_train(opts: &Opts) -> Result<(), String> {
    let pipe = Pipeline::from_opts(opts)?;
    let (bank, data, report) = pipe.trained_bank();
    println!(
        "collected {} samples over {} tokens; theoretical average exit {:.2} layers",
        data.samples.len(),
        data.tokens,
        data.theoretical_layers
    );
    println!(
        "mean predictor accuracy: {:.1}%",
        report.mean_accuracy * 100.0
    );
    if let Some(path) = opts.get("out") {
        let json = bank.to_json().map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("--out {path}: {e}"))?;
        println!("predictor bank written to {path}");
    }
    Ok(())
}

/// The `serve` workload's shape: every request is a [`PROMPT_LEN`]-token
/// prompt (from [`Pipeline::prompts`]) decoding [`GEN_LEN`] tokens into
/// KV pages of [`PAGE_SIZE`] tokens.
const PROMPT_LEN: usize = 12;
const GEN_LEN: usize = 16;
const PAGE_SIZE: usize = 16;

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let pipe = Pipeline::from_opts(opts)?;
    let batch: usize = parse_num(opts, "batch")?;
    let n_requests: usize = parse_num(opts, "requests")?;
    let rate: f64 = parse_num(opts, "rate")?;
    let workers: usize = parse_num(opts, "workers")?;
    let router_name = opts["router"].as_str();
    let router = RouterPolicy::parse(router_name).ok_or_else(|| {
        format!("unknown router `{router_name}` (round-robin, shortest-queue, exit-aware)")
    })?;
    let mode = opts["mode"].as_str();
    if !matches!(mode, "live" | "cluster") {
        return Err(format!("unknown mode `{mode}` (live, cluster)"));
    }
    if workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    if batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!(
            "--rate: expected a positive arrival rate, got `{rate}`"
        ));
    }
    let mut controller = parse_controller(opts)?.unwrap_or(ControllerPolicy::Static);
    let slo = match opts.get("slo") {
        None => None,
        Some(spec) => Some(SloSpec::parse(spec).map_err(|e| format!("--slo: {e}"))?),
    };
    let trace_sample = parse_trace_sample(opts)?;
    if slo.is_some() {
        // The SLO plane bends whatever controller was chosen: wrap it in
        // the pressure-driven decorator unless the spec already did.
        if !matches!(controller, ControllerPolicy::SloAdaptive(_)) {
            controller = controller.slo_adaptive();
        }
    } else if matches!(controller, ControllerPolicy::SloAdaptive(_)) {
        return Err(
            "--controller slo+… bends thresholds from SLO burn pressure; pass \
             --slo to define the objectives (e.g. --slo p99_ttft=0.25)"
                .to_string(),
        );
    }
    let lanes_n: usize = parse_num(opts, "lanes")?;
    let pages: usize = parse_num(opts, "pages")?;
    let prefix_share = parse_switch(opts, "prefix-share")?;
    if lanes_n > u8::MAX as usize + 1 {
        return Err("--lanes: at most 256 priority lanes".to_string());
    }
    // A request that does not fit the pool alone can never be seated.
    let pages_per_request = (PROMPT_LEN + GEN_LEN).div_ceil(PAGE_SIZE);
    if pages > 0 && pages < pages_per_request {
        return Err(format!(
            "--pages: one request needs {pages_per_request} pages ({PROMPT_LEN} prompt + \
             {GEN_LEN} generated tokens, {PAGE_SIZE} per page), got {pages}"
        ));
    }
    let page_capacity = (pages > 0).then_some(pages);
    // A capped pool parks/resumes under pressure instead of aborting;
    // preemption rides the cap on the CLI.
    let preemption = page_capacity.is_some();
    let lane_of = |id: u64| {
        if lanes_n > 0 {
            specee::core::Lane::new((id % lanes_n as u64) as u8)
        } else {
            specee::core::Lane::DEFAULT
        }
    };
    let (trace_out, metrics_out) = (opts.get("trace-out"), opts.get("metrics-out"));
    let observing = trace_out.is_some() || metrics_out.is_some();
    let mut events: Vec<Event> = Vec::new();
    let mut registry = MetricsRegistry::new();

    match mode {
        "cluster" => println!(
            "{} requests, Poisson {rate}/s, {workers} workers x batch cap {batch}, {} on \
             A100/vllm (cluster mode, {} routing)",
            n_requests,
            pipe.cfg.name,
            router.name()
        ),
        _ => println!(
            "{} requests, Poisson {rate}/s, batch cap {batch}, {} on A100/vllm ({mode} mode)",
            n_requests, pipe.cfg.name
        ),
    }
    if n_requests == 0 {
        // Nothing arrives, nothing decodes: report an explicit empty
        // summary instead of 0/0 ratios.
        println!("dense  : 0 tokens served");
        println!("SpecEE : 0 tokens served (speedup n/a)");
        return Ok(());
    }

    let (bank, data, _) = pipe.trained_bank();
    let freqs = data.exit_frequencies;
    let config = SpecEeConfig::default();
    let schedule = config.build_schedule(pipe.cfg.n_layers, Some(&freqs));
    let specs: Vec<(Vec<TokenId>, usize)> = pipe.prompts(n_requests, GEN_LEN);
    let requests = PoissonArrivals::new(rate, pipe.seed ^ 0x11).requests(&specs);
    // The dense reference is served at the deployment's total slot budget:
    // the monolithic alternative to a sharded cluster is one big batch.
    let dense_cap = if mode == "cluster" {
        batch * workers
    } else {
        batch
    };
    let cost = pipe.cfg.cost.ok_or("model has no cost twin")?;
    let batcher_config = |max_batch: usize| BatcherConfig {
        max_batch,
        hardware: HardwareProfile::a100_80g(),
        framework: FrameworkProfile::vllm(),
        cost,
    };
    // The dense reference: the same loop, bank, schedule and config, every
    // sequence seated with nothing to speculate on.
    let mut dense_engine = BatchedEngine::new(
        dense_cap,
        PAGE_SIZE,
        pipe.cfg.n_layers,
        bank.clone(),
        schedule.clone(),
        config.clone(),
    );
    let d = ContinuousBatcher::new(batcher_config(dense_cap))
        .run_live(&requests, &mut dense_engine, |_req| (pipe.lm(), NoDraft))
        .report
        .stats();

    let s = match mode {
        "cluster" => {
            // Cluster: shard live decoding over worker threads behind the
            // chosen routing policy. The workload is homogeneous, so every
            // request carries the same offline expected-exit hint (the
            // exit-aware policy then degrades gracefully to load-aware
            // routing; heterogeneous deployments pass per-class hints).
            let mass: f64 = freqs.iter().sum();
            let expected_depth = if mass > 0.0 {
                freqs
                    .iter()
                    .enumerate()
                    .map(|(l, f)| (l + 1) as f64 * f)
                    .sum::<f64>()
                    / mass
            } else {
                pipe.cfg.n_layers as f64
            };
            let seq_pipe = pipe.clone();
            let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
                &ClusterConfig {
                    workers,
                    page_size: PAGE_SIZE,
                    page_capacity,
                    prefix_share,
                    preemption,
                    admission: specee::serve::AdmissionPolicy::Fcfs,
                    batcher: batcher_config(batch),
                    controller: controller.clone(),
                    gossip: true,
                    trace: observing,
                    trace_sample,
                    slo: slo.clone(),
                },
                router.build(),
                &bank,
                &schedule,
                &config,
                std::sync::Arc::new(move |_req: &ClusterRequest| (seq_pipe.lm(), seq_pipe.draft())),
            );
            for req in &requests {
                let lane = lane_of(req.id);
                cluster.submit(
                    ClusterRequest::new(req.clone())
                        .with_exit_hint(expected_depth)
                        .with_lane(lane),
                );
            }
            let report = cluster.drain();
            if page_capacity.is_some() || prefix_share || lanes_n > 0 {
                println!(
                    "kv     : peak {} pages{} | preempt {} / resume {}",
                    report.kv_pages_peak(),
                    page_capacity
                        .map(|c| format!(" (cap {c}/worker)"))
                        .unwrap_or_default(),
                    report.preemptions(),
                    report.resumes()
                );
            }
            if observing {
                events = report.events.clone();
                registry = report.metrics(Some(&HardwareProfile::a100_80g()));
            }
            for w in &report.workers {
                let threshold = w
                    .controller
                    .as_ref()
                    .map(|c| format!(" | thr {:.2}", c.mean_threshold))
                    .unwrap_or_default();
                println!(
                    "worker {} : {:>3} requests | {:>6} steps | makespan {:>6.0} ms | \
                     observed depth {:>4.1}/{}{}{}",
                    w.worker,
                    w.report.completions.len(),
                    w.report.steps,
                    w.report.makespan_s * 1e3,
                    w.observed_depth.unwrap_or(0.0),
                    pipe.cfg.n_layers,
                    threshold,
                    w.panic
                        .as_deref()
                        .map(|m| format!(" | FAILED: {m}"))
                        .unwrap_or_default()
                );
            }
            if controller != ControllerPolicy::Static {
                for w in &report.workers {
                    if let Some(summary) = &w.controller {
                        println!(
                            "worker {} controller: {}",
                            w.worker,
                            controller_line(summary)
                        );
                    }
                }
            }
            // Per-traffic-class breakdown (classes derive from exit
            // hints at admission; the homogeneous CLI workload maps to
            // one depth band).
            let breakdown = report.class_breakdown();
            if !breakdown.is_empty() {
                for row in &breakdown {
                    println!(
                        "{:<7}: {:>3} requests | {:>5} tokens | avg layers {:>4.1}/{}{}",
                        row.class.to_string(),
                        row.requests,
                        row.tokens,
                        row.mean_layers().unwrap_or(0.0),
                        pipe.cfg.n_layers,
                        row.mean_threshold
                            .map(|t| format!(" | thr {t:.2}"))
                            .unwrap_or_default()
                    );
                }
            }
            report.stats()
        }
        _ => {
            // Live: admit requests into batched-engine slots and price the
            // measured lock-step decode, with the chosen controller
            // closing the threshold loop after every step.
            let n_predictors = bank.len();
            let base = config.predictor.threshold;
            let mut engine =
                BatchedEngine::new(batch, PAGE_SIZE, pipe.cfg.n_layers, bank, schedule, config);
            engine.set_page_capacity(page_capacity);
            engine.enable_prefix_share(prefix_share);
            engine.set_preemption_enabled(preemption);
            engine.set_controller(controller.build_classed(n_predictors, base));
            if observing {
                let rec = Recorder::for_worker(0).with_sample_every(trace_sample);
                engine.set_recorder(Some(rec));
            }
            let lanes: Vec<specee::core::Lane> = requests.iter().map(|r| lane_of(r.id)).collect();
            // Only this path hands the batcher the SLO spec (cluster
            // threads it through `ClusterConfig` instead).
            let mut batcher = ContinuousBatcher::new(batcher_config(batch));
            if let Some(spec) = &slo {
                batcher = batcher.with_slo(spec.clone());
            }
            let outcome = batcher.run_live_laned(&requests, &lanes, &mut engine, |_req| {
                (pipe.lm(), pipe.draft())
            });
            if page_capacity.is_some() || prefix_share || lanes_n > 0 {
                let kv = engine.kv_stats();
                println!(
                    "kv     : peak {} pages{} | shared {} | cow {} | preempt {} / resume {}",
                    kv.pages_peak,
                    kv.capacity
                        .map(|c| format!(" (cap {c})"))
                        .unwrap_or_default(),
                    kv.shared_pages,
                    kv.cow_copies,
                    engine.preemptions(),
                    engine.resumes()
                );
            }
            if controller != ControllerPolicy::Static {
                if let Some(summary) = engine.controller_summary() {
                    println!("controller: {}", controller_line(&summary));
                }
            }
            if observing {
                let rec = engine.take_recorder();
                fold_dropped_events(
                    &mut registry,
                    rec.as_ref().map_or(0, |r| r.dropped_events()),
                );
                events = rec.map(|r| r.into_events()).unwrap_or_default();
                fold_events(&mut registry, &events);
                fold_meter(&mut registry, engine.meter());
                fold_roofline(
                    &mut registry,
                    &Roofline::with_framework(
                        HardwareProfile::a100_80g(),
                        FrameworkProfile::vllm(),
                    )
                    .cost(engine.meter()),
                );
            }
            outcome.report.stats()
        }
    };
    let dense_label = if mode == "cluster" {
        format!("dense 1x{dense_cap}")
    } else {
        "dense  ".to_string()
    };
    // Both rows come out of the same loop, so they print the same way.
    let row = |s: &ServeStats| {
        format!(
            "{:>8.2} tok/s | TTFT {:>6.0} ms | latency p50/p95/p99 {:>5.0}/{:>5.0}/{:>5.0} ms",
            s.throughput_tok_s,
            s.mean_ttft_s * 1e3,
            s.p50_latency_s * 1e3,
            s.p95_latency_s * 1e3,
            s.p99_latency_s * 1e3
        )
    };
    println!("{dense_label}: {}", row(&d));
    let speedup = s.throughput_tok_s / d.throughput_tok_s;
    println!("SpecEE : {}  ({speedup:.2}x, {mode})", row(&s));
    if observing {
        write_exports(trace_out, metrics_out, &events, &registry)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draft(spec: &str) -> SelfDraftSpec {
        parse_draft_spec(spec).expect("valid draft spec")
    }

    fn draft_err(spec: &str) -> String {
        parse_draft_spec(spec).expect_err("invalid draft spec")
    }

    #[test]
    fn draft_specs_parse_exit_and_tree() {
        let spec = draft("self:exit=8,tree=3x2x2");
        assert_eq!(spec.exit_layer, 8);
        assert_eq!(spec.shape.branching(), &[3, 2, 2]);
        // Knob order is free, and a single-level chain is a valid tree.
        let spec = draft("self:tree=2,exit=1");
        assert_eq!(spec.exit_layer, 1);
        assert_eq!(spec.shape.branching(), &[2]);
    }

    #[test]
    fn malformed_draft_specs_name_the_offense() {
        assert!(draft_err("eagle:exit=2,tree=2").contains("unknown draft kind `eagle`"));
        assert!(draft_err("self").contains("needs `exit=N,tree=AxBxC`"));
        assert!(draft_err("self:").contains("needs `exit=N,tree=AxBxC`"));
        assert!(draft_err("self:exit=2").contains("missing `tree=AxBxC`"));
        assert!(draft_err("self:tree=2x2").contains("missing `exit=N`"));
        assert!(draft_err("self:exit=2,tree").contains("not key=value"));
        assert!(draft_err("self:exit=0,tree=2").contains("at least 1"));
        assert!(draft_err("self:exit=two,tree=2").contains("bad layer index `two`"));
        assert!(draft_err("self:exit=2,tree=2x0").contains("bad branching factor `0`"));
        assert!(draft_err("self:exit=2,tree=2xq").contains("bad branching factor `q`"));
        assert!(draft_err("self:exit=2,width=3").contains("unknown draft knob `width`"));
    }

    #[test]
    fn controller_line_formats_the_summary() {
        let line = controller_line(&ControllerSummary {
            policy: "pid",
            mean_threshold: 0.525,
            accepts: 6,
            rejects: 2,
            tokens: 40,
        });
        assert!(line.contains("pid"));
        assert!(line.contains("0.525"));
        assert!(line.contains("8 fires (6 accept / 2 reject, false-exit 25%)"));
    }
}
