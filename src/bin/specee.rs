//! `specee` — command-line front end for the SpecEE reproduction.
//!
//! ```text
//! specee info                         # model / hardware / dataset tables
//! specee generate [OPTIONS]           # decode with a chosen engine
//! specee train [OPTIONS]              # offline predictor training (§7.4.4)
//! specee serve [OPTIONS]              # continuous-batching simulation
//! ```
//!
//! Every run is deterministic for a fixed `--seed`.

use std::collections::HashMap;
use std::process::ExitCode;

use specee::batch::{Admission, BatchedEngine};
use specee::cluster::{Cluster, ClusterConfig, ClusterRequest, RouterPolicy};
use specee::control::{ControllerPolicy, ControllerSummary};
use specee::core::collect::{collect_training_data, train_bank};
use specee::core::engine::{DenseEngine, SpecEeEngine};
use specee::core::predictor::PredictorBank;
use specee::core::skip_layer::{calibrate_calm_threshold, CalmEngine};
use specee::core::{agreement, GenOutput, ScheduleEngine, SpecEeConfig};
use specee::draft::{NoDraft, SelfDraft, SelfDraftSpec, SpeculativeSource, TreeShape};
use specee::metrics::{FrameworkProfile, HardwareProfile, Roofline};
use specee::model::{LayeredLm, ModelConfig, TokenId};
use specee::nn::TrainConfig;
use specee::obs::{
    chrome_trace_json, fold_dropped_events, fold_events, fold_meter, fold_roofline,
    prometheus_text, Event, MetricsRegistry, Recorder, SloSpec,
};
use specee::serve::{BatcherConfig, ContinuousBatcher, PoissonArrivals, ServeStats};
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::rng::Pcg;
use specee::tensor::BackendKind;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print_help();
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "info" => cmd_info(),
        "generate" => cmd_generate(&args[1..]),
        "train" => cmd_train(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `specee help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "specee — speculative early exiting for LLM inference (ISCA 2025 reproduction)\n\n\
         USAGE: specee <COMMAND> [OPTIONS]\n\n\
         COMMANDS:\n  \
           info       list model presets, dataset profiles and hardware targets\n  \
           generate   decode a prompt (--model 7b|13b|70b --dataset NAME --tokens N\n             \
                      --engine dense|specee|calm --seed N\n             \
                      --backend reference|blocked|quant: CPU compute kernels for\n             \
                      every projection mat-vec (blocked is bit-identical to the\n             \
                      reference oracle on dense weights, quant runs an i8\n             \
                      integer inner loop)\n             \
                      --controller static|pid|bandit: run the specee engine at\n             \
                      batch 1 with online exit-threshold control; policies take\n             \
                      inline knobs, e.g. pid:target=0.05,kp=0.3 or\n             \
                      bandit:floor=0.9,grid=0.2|0.5|1.0\n             \
                      --draft self:exit=N,tree=AxBxC: self-speculative\n             \
                      decoding — the target's own first N layers draft an\n             \
                      AxBxC token tree per round, verified in one batched\n             \
                      full-depth sweep; bit-identical greedy tokens with\n             \
                      fewer full-depth passes)\n  \
           train      offline predictor pipeline; prints the sample count and\n             \
                      the mean predictor accuracy (--model, --dataset, --seed,\n             \
                      --backend as above; --out FILE writes the trained bank\n             \
                      as JSON)\n  \
           serve      continuous batching (--batch N --requests N --rate R\n             \
                      --mode live|cluster: live (the default) runs the lock-step\n             \
                      batched engine and prices measured steps, cluster shards\n             \
                      that over --workers N threads routed by\n             \
                      --router round-robin|shortest-queue|exit-aware;\n             \
                      --controller static|pid|bandit adapts exit thresholds\n             \
                      online; paged-KV memory plane:\n             \
                      --pages N caps each engine's physical KV pages and\n             \
                      parks/resumes the lowest-priority resident under\n             \
                      pressure (bit-identical outputs), --prefix-share on\n             \
                      leases matching prompt-prefix pages copy-on-write,\n             \
                      --lanes N assigns request id mod N as its priority\n             \
                      lane, lower = higher priority)\n  \
           help       this message\n\n\
         OBSERVABILITY (generate with --engine specee, serve in either mode):\n  \
           --trace-out FILE    write the run's event timeline as Chrome\n                       \
                               trace-event JSON (open in Perfetto or\n                       \
                               chrome://tracing; one lane per worker)\n  \
           --metrics-out FILE  write counters/gauges/histograms as\n                       \
                               Prometheus text exposition\n  \
           --trace-sample N    keep a deterministic 1-in-N of each event\n                       \
                               kind (default 1 = keep all); drops are\n                       \
                               counted in specee_trace_dropped_events_total\n  \
           Recording is a pure observer: traced runs decode bit-identically\n  \
           to untraced runs.\n\n\
         SLO PLANE (serve):\n  \
           --slo SPEC          track objectives and bend exit thresholds\n                       \
                               under burn pressure, e.g.\n                       \
                               --slo p99_ttft=0.25,false_exit_rate=0.1;\n                       \
                               wraps the chosen --controller (summaries\n                       \
                               report e.g. `slo+bandit`), and SloFired /\n                       \
                               SloCleared transitions land in the trace\n  \
           --controller slo+pid|slo+bandit|slo+static  wrap explicitly\n                       \
                               (requires --slo for the burn-rate tracker)"
    );
}

/// `--trace-out FILE` / `--metrics-out FILE` export destinations. Either
/// flag switches the run into recorded mode (which is still bit-identical
/// to the unrecorded run — recording never feeds back into the
/// simulation).
fn export_paths(opts: &HashMap<String, String>) -> (Option<String>, Option<String>) {
    (
        opts.get("trace-out").cloned(),
        opts.get("metrics-out").cloned(),
    )
}

/// `--trace-sample N`: keep a deterministic 1-in-N of each event kind
/// (per-kind counters, so rare kinds are not starved by frequent ones).
/// Drops are counted and exported as
/// `specee_trace_dropped_events_total`. `1` keeps everything.
fn parse_trace_sample(opts: &HashMap<String, String>) -> Result<u32, String> {
    let n: u32 = parse_num(opts, "trace-sample", 1)?;
    if n == 0 {
        return Err("--trace-sample must be at least 1 (N keeps 1-in-N events per kind)".into());
    }
    Ok(n)
}

/// `--slo SPEC`: comma-separated objectives, e.g.
/// `p99_ttft=0.25,false_exit_rate=0.1`.
fn parse_slo(opts: &HashMap<String, String>) -> Result<Option<SloSpec>, String> {
    match opts.get("slo") {
        None => Ok(None),
        Some(spec) => SloSpec::parse(spec)
            .map(Some)
            .map_err(|e| format!("--slo: {e}")),
    }
}

/// Writes the requested exports: the event timeline as Chrome trace-event
/// JSON (open in Perfetto or `chrome://tracing`) and the metrics registry
/// as Prometheus text exposition.
fn write_exports(
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
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

/// The flags every model-building subcommand takes ([`Pipeline::from_opts`]),
/// then each subcommand's own (`generate` takes `--slo` only to explain why
/// it is a `serve` flag).
const PIPELINE_FLAGS: &str = "model dataset seed backend";
const GENERATE_FLAGS: &str =
    "tokens engine controller draft slo trace-out metrics-out trace-sample";
const TRAIN_FLAGS: &str = "out";
const SERVE_FLAGS: &str = "batch requests rate mode workers router controller slo pages \
                           prefix-share lanes trace-out metrics-out trace-sample";

/// Parses `command`'s `--key value` options. Anything else on the command
/// line — a flag `command` does not take (a typo, another subcommand's), a
/// word that is neither a flag nor a flag's value — is a usage error naming
/// the flags it does take.
fn parse_opts(
    command: &str,
    own_flags: &str,
    args: &[String],
) -> Result<HashMap<String, String>, String> {
    let flags: Vec<&str> = PIPELINE_FLAGS
        .split(' ')
        .chain(own_flags.split(' '))
        .collect();
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--").filter(|key| flags.contains(key)) else {
            let what = if a.starts_with("--") {
                "unknown flag"
            } else {
                "unexpected argument"
            };
            let takes: Vec<String> = flags.iter().map(|f| format!("--{f}")).collect();
            return Err(format!(
                "{what} `{a}`: `specee {command}` takes {}",
                takes.join(", ")
            ));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("--{key} expects a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    Ok(opts)
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

/// `--key on|off` boolean flags (absent = off).
fn parse_switch(opts: &HashMap<String, String>, key: &str) -> Result<bool, String> {
    match opts.get(key).map(String::as_str) {
        None | Some("off") => Ok(false),
        Some("on") => Ok(true),
        Some(v) => Err(format!("--{key}: expected on|off, got `{v}`")),
    }
}

fn parse_num<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad value `{v}`")),
    }
}

#[derive(Clone)]
struct Pipeline {
    cfg: ModelConfig,
    profile: DatasetProfile,
    seed: u64,
    backend: BackendKind,
    /// The model, built once per invocation and never stepped: every
    /// [`Pipeline::lm`] is a clone of it (fresh KV, script and noise
    /// stream; the one weight set shared).
    template: SyntheticLm,
}

impl Pipeline {
    fn from_opts(opts: &HashMap<String, String>) -> Result<Self, String> {
        let cfg = model_by_name(opts.get("model").map_or("7b", String::as_str))?;
        let profile = dataset_by_name(opts.get("dataset").map_or("QA", String::as_str))?;
        let seed = parse_num(opts, "seed", 2025u64)?;
        let backend = match opts.get("backend") {
            None => BackendKind::default(),
            Some(v) => v.parse().map_err(|e| format!("--backend: {e}"))?,
        };
        let mut template = SyntheticLmBuilder::new(cfg.clone(), profile.clone())
            .seed(seed)
            .build();
        template.set_backend(backend);
        Ok(Pipeline {
            cfg,
            profile,
            seed,
            backend,
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

    fn trained_bank(&self) -> (PredictorBank, Vec<f64>) {
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
        train_bank(
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
        (bank, data.exit_frequencies)
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

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let opts = parse_opts("generate", GENERATE_FLAGS, args)?;
    let pipe = Pipeline::from_opts(&opts)?;
    let tokens: usize = parse_num(&opts, "tokens", 24)?;
    let engine_name = opts.get("engine").map_or("specee", String::as_str);
    if !matches!(engine_name, "dense" | "specee" | "calm") {
        return Err(format!(
            "unknown engine `{engine_name}` (dense, specee, calm)"
        ));
    }
    let controller = parse_controller(&opts)?;
    if controller.is_some() && engine_name != "specee" {
        return Err("--controller requires --engine specee".to_string());
    }
    if opts.contains_key("slo") {
        return Err(
            "--slo tracks burn rates over serve-tier request timing; generate \
             decodes a single stream (use `serve --mode live|cluster --slo …`)"
                .to_string(),
        );
    }
    if matches!(controller, Some(ControllerPolicy::SloAdaptive { .. })) {
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
    let trace_sample = parse_trace_sample(&opts)?;
    let (trace_out, metrics_out) = export_paths(&opts);
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
    let mut controller_summary: Option<ControllerSummary> = None;
    let recorder = observing.then(|| Recorder::new().with_sample_every(trace_sample));
    let (out, recorder): (GenOutput, Option<Recorder>) = match (engine_name, &self_draft) {
        ("dense", _) => (DenseEngine::new(pipe.lm()).generate(&prompt, tokens), None),
        ("specee", Some(spec)) => {
            // Self-speculative drafting: the target's own shallow layers
            // draft a token tree per round, verified in one batched
            // full-depth sweep. Runs through the batch-1 BatchedEngine,
            // whose lock-step self-draft path is structurally
            // parity-identical to the single-stream SpeculativeEngine.
            // The predictor bank is inert here (self-draft never consults
            // exit predictors), so an untrained bank suffices.
            let config = SpecEeConfig::default();
            let bank = PredictorBank::new(
                pipe.cfg.n_layers,
                &config.predictor,
                &mut Pcg::seed(pipe.seed ^ 0x5d),
            );
            let schedule = ScheduleEngine::all_layers(pipe.cfg.n_layers);
            let mut engine = BatchedEngine::new(1, 16, pipe.cfg.n_layers, bank, schedule, config);
            generate_batch1(
                &mut engine,
                recorder,
                pipe.lm(),
                SelfDraft::new(spec.clone()),
                &prompt,
                tokens,
            )
        }
        ("specee", None) => {
            let (bank, freqs) = pipe.trained_bank();
            let config = SpecEeConfig::default();
            let schedule = config.build_schedule(pipe.cfg.n_layers, Some(&freqs));
            let draft = pipe.draft();
            match controller {
                None => {
                    let mut engine = SpecEeEngine::new(pipe.lm(), draft, bank, schedule, config);
                    engine.set_recorder(recorder);
                    let out = engine.generate(&prompt, tokens);
                    (out, engine.take_recorder())
                }
                Some(policy) => {
                    // Controlled decoding runs the same ExitScan dataflow
                    // through a batch-1 BatchedEngine (structurally
                    // parity-identical to the single-stream engine), which
                    // closes the threshold loop after every token.
                    let n_predictors = bank.len();
                    let base = config.predictor.threshold;
                    let mut engine =
                        BatchedEngine::new(1, 16, pipe.cfg.n_layers, bank, schedule, config);
                    engine.set_controller(policy.build_classed(n_predictors, base));
                    let run =
                        generate_batch1(&mut engine, recorder, pipe.lm(), draft, &prompt, tokens);
                    controller_summary = engine.controller_summary();
                    run
                }
            }
        }
        ("calm", _) => {
            let mut calib = pipe.lm();
            let prompts = pipe.prompts(4, 12);
            let thr = calibrate_calm_threshold(&mut calib, &prompts);
            (
                CalmEngine::new(pipe.lm(), thr).generate(&prompt, tokens),
                None,
            )
        }
        _ => unreachable!("engine name validated above"),
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
    println!("backend       : {}", pipe.backend);
    println!("tokens        : {:?}", out.tokens);
    println!("exit layers   : {:?}", out.exit_layers);
    println!(
        "avg layers    : {:.2} / {}",
        out.avg_layers(),
        pipe.cfg.n_layers
    );
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
            "self-draft    : exit {} of {} layers, tree {shape} | \
             {} shallow layer-runs, {} verify rounds",
            spec.exit_layer, pipe.cfg.n_layers, out.self_draft_calls, out.rounds
        );
    }
    if observing {
        let mut registry = MetricsRegistry::new();
        fold_events(&mut registry, &events);
        fold_dropped_events(&mut registry, dropped);
        fold_meter(&mut registry, &out.meter);
        fold_roofline(&mut registry, &cost);
        write_exports(
            trace_out.as_deref(),
            metrics_out.as_deref(),
            &events,
            &registry,
        )?;
    }
    Ok(())
}

/// Decodes one prompt on a batch-1 [`BatchedEngine`] (`generate`'s
/// `--controller` and `--draft self:` arms) and reports it in the
/// single-stream shape, with the recorder handed back.
fn generate_batch1<D: SpeculativeSource>(
    engine: &mut BatchedEngine<SyntheticLm, D>,
    recorder: Option<Recorder>,
    lm: SyntheticLm,
    draft: D,
    prompt: &[TokenId],
    tokens: usize,
) -> (GenOutput, Option<Recorder>) {
    // A self-draft step is one verify round; the exit scan has none.
    let self_draft = draft.self_spec().is_some();
    engine.set_recorder(recorder);
    let out = match engine.admit(0, lm, draft, prompt, tokens) {
        Admission::Done(out) => out,
        Admission::Seated { .. } => {
            // No simulated clock at batch 1: each step is stamped with the
            // tokens emitted before it, as `SpecEeEngine` stamps a token.
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
    (out, engine.take_recorder())
}

/// Parses `--controller <spec>` (absent means no controller).
fn parse_controller(opts: &HashMap<String, String>) -> Result<Option<ControllerPolicy>, String> {
    match opts.get("controller") {
        None => Ok(None),
        Some(spec) => parse_controller_spec(spec).map(Some),
    }
}

/// Parses a controller spec: a policy name with optional inline knobs,
/// `<policy>[:key=value[,key=value]*]` — e.g. `pid:target=0.05,kp=0.3`
/// or `bandit:floor=0.9,epoch=16,grid=0.2|0.5|1.0`. Every malformed
/// spec yields an error naming the offending fragment and the knobs the
/// policy accepts.
fn parse_controller_spec(spec: &str) -> Result<ControllerPolicy, String> {
    // `slo+<policy>[:knobs]` wraps the inner policy in the SLO-adaptive
    // decorator; knobs apply to the inner policy (the wrapper's bend
    // range is fixed by `SloAdaptiveConfig::default`).
    if let Some(inner) = spec.strip_prefix("slo+") {
        return parse_controller_spec(inner).map(ControllerPolicy::slo_adaptive);
    }
    let (name, knobs) = match spec.split_once(':') {
        Some((name, rest)) => (name, rest),
        None => (spec, ""),
    };
    let mut policy = ControllerPolicy::parse(name).ok_or_else(|| {
        format!("unknown controller `{name}` (static, pid, bandit, or slo+ any of those)")
    })?;
    if knobs.is_empty() {
        if spec.contains(':') {
            return Err(format!("controller spec `{spec}` has an empty knob list"));
        }
        return Ok(policy);
    }
    for knob in knobs.split(',') {
        let (key, value) = knob
            .split_once('=')
            .ok_or_else(|| format!("controller knob `{knob}` is not key=value (in `{spec}`)"))?;
        let bad = |what: &str| format!("controller knob `{key}`: bad {what} `{value}`");
        let num = || {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| bad("number"))
        };
        match &mut policy {
            ControllerPolicy::SloAdaptive { .. } => {
                unreachable!("slo+ specs are unwrapped before knob parsing")
            }
            ControllerPolicy::Static => {
                return Err(format!("controller `static` takes no knobs (got `{knob}`)"));
            }
            ControllerPolicy::Pid(config) => match key {
                "target" => config.target_false_exit = num()?,
                "kp" => config.kp = num()?,
                "ki" => config.ki = num()?,
                "alpha" => config.ewma_alpha = num()?,
                "idle" => config.idle_decay = num()? as f32,
                "min" => config.min_threshold = num()? as f32,
                "max" => config.max_threshold = num()? as f32,
                _ => {
                    return Err(format!(
                        "unknown pid knob `{key}` \
                         (target, kp, ki, alpha, idle, min, max)"
                    ));
                }
            },
            ControllerPolicy::Bandit(config) => match key {
                "floor" => config.accuracy_floor = num()?,
                "epoch" => {
                    config.epoch_tokens = value.parse().map_err(|_| bad("integer"))?;
                    if config.epoch_tokens == 0 {
                        return Err("bandit knob `epoch` must be at least 1".to_string());
                    }
                }
                "discount" => config.discount = num()?,
                "evidence" => config.epoch_evidence = num()?,
                "gossip-evidence" => config.gossip_evidence = num()?,
                "reject-cost" => config.reject_cost_layers = num()?,
                "seed" => config.seed = value.parse().map_err(|_| bad("integer"))?,
                "grid" => {
                    let arms: Result<Vec<f32>, String> = value
                        .split('|')
                        .map(|a| a.parse::<f32>().map_err(|_| bad("grid")))
                        .collect();
                    let arms = arms?;
                    if arms.is_empty() || arms.iter().any(|a| !a.is_finite()) {
                        return Err(bad("grid"));
                    }
                    config.grid = arms;
                }
                _ => {
                    return Err(format!(
                        "unknown bandit knob `{key}` (floor, epoch, discount, \
                         evidence, gossip-evidence, reject-cost, seed, grid)"
                    ));
                }
            },
        }
    }
    // Cross-knob consistency: an inverted clamp range would otherwise
    // panic inside `f32::clamp` when the controller is built.
    if let ControllerPolicy::Pid(config) = &policy {
        if config.min_threshold > config.max_threshold {
            return Err(format!(
                "pid knobs min={} > max={} (the threshold clamp range is empty)",
                config.min_threshold, config.max_threshold
            ));
        }
    }
    Ok(policy)
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

fn cmd_train(args: &[String]) -> Result<(), String> {
    let opts = parse_opts("train", TRAIN_FLAGS, args)?;
    let pipe = Pipeline::from_opts(&opts)?;
    let mut lm = pipe.lm();
    let mut draft = pipe.draft();
    let prompts = pipe.prompts(6, 16);
    let data = collect_training_data(&mut lm, &mut draft, &prompts, 4);
    println!(
        "collected {} samples over {} tokens; theoretical average exit {:.2} layers",
        data.samples.len(),
        data.tokens,
        data.theoretical_layers
    );
    let config = SpecEeConfig::default();
    let mut bank = PredictorBank::new(
        pipe.cfg.n_layers,
        &config.predictor,
        &mut Pcg::seed(pipe.seed),
    );
    let report = train_bank(
        &mut bank,
        &data.samples,
        1.0,
        &TrainConfig::default(),
        pipe.seed,
    );
    println!(
        "mean predictor accuracy: {:.1}%",
        report.mean_accuracy * 100.0
    );
    if let Some(path) = opts.get("out") {
        let json = bank.to_json().map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
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

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let opts = parse_opts("serve", SERVE_FLAGS, args)?;
    let pipe = Pipeline::from_opts(&opts)?;
    let batch: usize = parse_num(&opts, "batch", 8)?;
    let n_requests: usize = parse_num(&opts, "requests", 12)?;
    let rate: f64 = parse_num(&opts, "rate", 6.0)?;
    let workers: usize = parse_num(&opts, "workers", 2)?;
    let router_name = opts.get("router").map_or("round-robin", String::as_str);
    let router = RouterPolicy::parse(router_name).ok_or_else(|| {
        format!("unknown router `{router_name}` (round-robin, shortest-queue, exit-aware)")
    })?;
    let mode = opts.get("mode").map_or("live", String::as_str);
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
    let mut controller = parse_controller(&opts)?.unwrap_or(ControllerPolicy::Static);
    let slo = parse_slo(&opts)?;
    let trace_sample = parse_trace_sample(&opts)?;
    if slo.is_some() {
        // The SLO plane bends whatever controller was chosen: wrap it in
        // the pressure-driven decorator unless the spec already did.
        if !matches!(controller, ControllerPolicy::SloAdaptive { .. }) {
            controller = controller.slo_adaptive();
        }
    } else if matches!(controller, ControllerPolicy::SloAdaptive { .. }) {
        return Err(
            "--controller slo+… bends thresholds from SLO burn pressure; pass \
             --slo to define the objectives (e.g. --slo p99_ttft=0.25)"
                .to_string(),
        );
    }
    let lanes_n: usize = parse_num(&opts, "lanes", 0)?;
    let pages: usize = parse_num(&opts, "pages", 0)?;
    let prefix_share = parse_switch(&opts, "prefix-share")?;
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
    let (trace_out, metrics_out) = export_paths(&opts);
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

    let (bank, freqs) = pipe.trained_bank();
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
        write_exports(
            trace_out.as_deref(),
            metrics_out.as_deref(),
            &events,
            &registry,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use specee::control::{BanditConfig, PidConfig};

    fn parse(spec: &str) -> ControllerPolicy {
        parse_controller_spec(spec).expect("valid spec")
    }

    fn err(spec: &str) -> String {
        parse_controller_spec(spec).expect_err("invalid spec")
    }

    #[test]
    fn name_only_specs_use_default_configs() {
        assert_eq!(parse("static"), ControllerPolicy::Static);
        assert_eq!(parse("pid"), ControllerPolicy::Pid(PidConfig::default()));
        assert_eq!(
            parse("bandit"),
            ControllerPolicy::Bandit(BanditConfig::default())
        );
    }

    #[test]
    fn pid_knobs_override_defaults() {
        let ControllerPolicy::Pid(config) =
            parse("pid:target=0.05,kp=0.3,ki=0.01,alpha=0.5,idle=0.1,min=0.2,max=0.8")
        else {
            panic!("expected pid");
        };
        assert_eq!(config.target_false_exit, 0.05);
        assert_eq!(config.kp, 0.3);
        assert_eq!(config.ki, 0.01);
        assert_eq!(config.ewma_alpha, 0.5);
        assert_eq!(config.idle_decay, 0.1);
        assert_eq!(config.min_threshold, 0.2);
        assert_eq!(config.max_threshold, 0.8);
        // Untouched knobs keep their defaults.
        let ControllerPolicy::Pid(partial) = parse("pid:target=0.05") else {
            panic!("expected pid");
        };
        assert_eq!(partial.target_false_exit, 0.05);
        assert_eq!(partial.kp, PidConfig::default().kp);
    }

    #[test]
    fn bandit_knobs_override_defaults() {
        let ControllerPolicy::Bandit(config) = parse(
            "bandit:floor=0.9,epoch=16,discount=0.99,evidence=3,gossip-evidence=1.5,\
             reject-cost=4,seed=7,grid=0.2|0.5|1.0",
        ) else {
            panic!("expected bandit");
        };
        assert_eq!(config.accuracy_floor, 0.9);
        assert_eq!(config.epoch_tokens, 16);
        assert_eq!(config.discount, 0.99);
        assert_eq!(config.epoch_evidence, 3.0);
        assert_eq!(config.gossip_evidence, 1.5);
        assert_eq!(config.reject_cost_layers, 4.0);
        assert_eq!(config.seed, 7);
        assert_eq!(config.grid, vec![0.2, 0.5, 1.0]);
    }

    #[test]
    fn slo_prefix_wraps_the_inner_policy_and_knobs_reach_it() {
        let ControllerPolicy::SloAdaptive { inner, .. } = parse("slo+pid:target=0.05") else {
            panic!("expected slo+pid");
        };
        let ControllerPolicy::Pid(config) = *inner else {
            panic!("expected pid inner");
        };
        assert_eq!(config.target_false_exit, 0.05);
        assert_eq!(parse("slo+static").name(), "slo+static");
        assert!(err("slo+sgd").contains("unknown controller `sgd`"));
    }

    #[test]
    fn malformed_specs_name_the_offense() {
        assert!(err("sgd").contains("unknown controller `sgd`"));
        assert!(err("pid:").contains("empty knob list"));
        assert!(err("pid:target").contains("not key=value"));
        assert!(err("pid:warp=1").contains("unknown pid knob `warp`"));
        assert!(err("pid:target=fast").contains("bad number `fast`"));
        assert!(err("bandit:epoch=0").contains("at least 1"));
        assert!(err("pid:target=nan").contains("bad number `nan`"));
        assert!(err("pid:min=0.8,max=0.2").contains("clamp range is empty"));
        assert!(err("bandit:epoch=2.5").contains("bad integer"));
        assert!(err("bandit:grid=0.2|x").contains("bad grid"));
        assert!(err("bandit:altitude=9").contains("unknown bandit knob"));
        assert!(err("static:target=0.1").contains("takes no knobs"));
    }

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
