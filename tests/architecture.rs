//! Architecture guards: each mechanism the simplification PRs reduced to one
//! place stays in one place, and each name or knob they retired stays gone.
//!
//! Std-only text checks over the checkout, so Tier-1 enforces them in any
//! session (CI's "Guards" step is `cargo test --test architecture`).  "Outside
//! tests" means a file with its `#[cfg(test)]` tail cut off — the first line
//! containing `#[cfg(test)]` and everything after it, the same rule as the
//! `sed '/#\[cfg(test)\]/,$d'` this file was ported from.  Counts are of
//! matching *lines*, as `grep -c` counts them.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir` (relative to the root), recursively, skipping
/// build output, the git store and this file (which has to spell the names
/// it forbids).
fn files_under(dir: &str) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && name != ".git" && name != ".bench_build" {
                    walk(&path, out);
                }
            } else if !path.ends_with("tests/architecture.rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(&root().join(dir), &mut out);
    out.sort();
    out
}

fn rust_files_under(dirs: &[&str]) -> Vec<PathBuf> {
    dirs.iter()
        .flat_map(|dir| files_under(dir))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect()
}

/// The `crates/*/src` trees.
fn crate_sources() -> Vec<PathBuf> {
    rust_files_under(&["crates"])
        .into_iter()
        .filter(|p| p.components().any(|c| c.as_os_str() == "src"))
        .collect()
}

/// The file's text, or nothing if it is not UTF-8 (no guard is about those).
fn text(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

fn non_test(path: &Path) -> String {
    text(path)
        .lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn lines_with(text: &str, needle: &str) -> usize {
    text.lines().filter(|line| line.contains(needle)).count()
}

fn shown(paths: &[PathBuf]) -> String {
    let relative = |p: &PathBuf| p.strip_prefix(root()).unwrap_or(p).display().to_string();
    paths.iter().map(relative).collect::<Vec<_>>().join("\n")
}

/// The files among `paths` whose text (as `read` gives it) has any needle.
fn naming(paths: &[PathBuf], read: fn(&Path) -> String, needles: &[&str]) -> Vec<PathBuf> {
    paths
        .iter()
        .filter(|p| {
            let body = read(p);
            needles.iter().any(|n| body.contains(n))
        })
        .cloned()
        .collect()
}

#[test]
fn no_deprecated_surface_and_no_ablated_knob() {
    // Clippy already denies `deprecated` workspace-wide; with the pre-session
    // builder shims deleted, no file may carry the escape hatch at all.
    let escapes = naming(&rust_files_under(&["."]), text, &["allow(deprecated)"]);
    assert!(
        escapes.is_empty(),
        "allow(deprecated) found (the shim surface is gone):\n{}",
        shown(&escapes)
    );
    // Settable things the Γ-stack ablation deleted must not come back, nor
    // the out-of-stream subset hull the strict d = 2 path used to ask first
    // (the depth region answers that path with no hull).
    let revived = naming(
        &rust_files_under(&["crates"]),
        text,
        &[
            "BVC_GAMMA_WORKERS",
            "enable_incremental",
            "run_with_scratch",
            "all_contain_from",
            "combination_rank",
        ],
    );
    assert!(
        revived.is_empty(),
        "ablated knob reappeared (see crates/bvc-geometry/README.md, Ablation record):\n{}",
        shown(&revived)
    );
}

#[test]
fn one_delivery_core() {
    // Outside tests, each delivery decision is made in exactly one file of
    // bvc-net (the contract is in the crate docs).  A second file calling any
    // of these is the three hand-written executors growing back.
    let net: Vec<PathBuf> = rust_files_under(&["crates/bvc-net/src"])
        .into_iter()
        .filter(|p| p.parent().is_some_and(|d| d.ends_with("bvc-net/src")))
        .collect();
    for decision in [
        "enforce_local_broadcast(",
        "TraceEvent::Vanish",
        "TraceEvent::Drop",
        ".drop_probability(",
        ".extra_latency(",
    ] {
        let sites = naming(&net, non_test, &[decision]);
        assert!(
            sites.len() == 1,
            "`{decision}` must appear in exactly one non-test file of bvc-net, found:\n{}",
            shown(&sites)
        );
    }
    let waivers = naming(
        &files_under("crates/bvc-net"),
        text,
        &["clippy::too_many_arguments"],
    );
    assert!(
        waivers.is_empty(),
        "bvc-net allows clippy::too_many_arguments nowhere: pass a struct\n{}",
        shown(&waivers)
    );
}

#[test]
fn one_benchmark() {
    // The perf stack PR 15 retired (three bins, two committed baselines, the
    // criterion benches and their vendored shim) may be named only by history
    // files and by benchmark/ (whose README still relates itself to the old
    // matrices).
    let excused = ["CHANGES.md", "ROADMAP.md", "CHAOS.md", "ISSUE.md"];
    let candidates: Vec<PathBuf> = files_under(".")
        .into_iter()
        .filter(|p| {
            let rel = p.strip_prefix(root()).unwrap_or(p);
            !rel.starts_with("benchmark") && !excused.iter().any(|e| rel == Path::new(e))
        })
        .collect();
    let named = naming(
        &candidates,
        text,
        &[
            "perf-snapshot",
            "perf-compare",
            "service-snapshot",
            "BENCH_gamma",
            "BENCH_service",
        ],
    );
    assert!(
        named.is_empty(),
        "the retired perf stack is named again: benchmark/ is the one benchmark\n{}",
        shown(&named)
    );
    // `name = "criterion"` matches the package, not the word.
    assert!(
        !root().join("vendor/criterion").exists()
            && !text(&root().join("Cargo.lock")).contains("name = \"criterion\""),
        "the criterion shim is back: unit costs are per-layer metrics of benchmark/"
    );
}

#[test]
fn claims_are_tests() {
    // Each of the paper's claims is an assertion of a Tier-1 test, stated
    // once.  The experiment binaries that printed them as yes/NO tables, and
    // the scalar baseline only they called, stay deleted.  `bvc-bench` is a
    // prefix of `bvc-benchmark`, so the names are matched quoted,
    // underscored or as a path segment.
    for gone in ["crates/bvc-bench", "crates/bvc-baselines"] {
        assert!(
            !root().join(gone).exists(),
            "{gone} is back: a claim of the paper is a test assertion, not a printed table"
        );
    }
    let files = files_under(".");
    let printouts: Vec<PathBuf> = files
        .iter()
        .filter(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy();
            name.starts_with("exp_") && name.ends_with(".rs")
        })
        .cloned()
        .collect();
    assert!(
        printouts.is_empty(),
        "an exp_* printout is back: assert its claim in a test instead\n{}",
        shown(&printouts)
    );
    // Code, manifests, lock and CI; the history files are markdown.
    let manifests: Vec<PathBuf> = files
        .into_iter()
        .filter(|p| {
            let kind = p.extension().and_then(|e| e.to_str()).unwrap_or_default();
            ["rs", "toml", "yml", "lock"].contains(&kind)
        })
        .collect();
    let named = naming(
        &manifests,
        text,
        &[
            "bvc_bench",
            "bvc_baselines",
            "\"bvc-bench\"",
            "\"bvc-baselines\"",
            "bvc-bench/",
            "bvc-baselines/",
        ],
    );
    assert!(
        named.is_empty(),
        "the deleted experiment or baseline crate is named again:\n{}",
        shown(&named)
    );
}

#[test]
fn one_worker_pool() {
    // Instances are run on threads by bvc-service/src/pool.rs and nowhere
    // else.  A second spawn site is the service and the campaign runner
    // mirroring each other again; a second `available_parallelism` is a
    // second place that sizes a pool.
    let sources = crate_sources();
    let spawners: Vec<PathBuf> = naming(
        &sources,
        text,
        &["thread::scope", "scope.spawn", "thread::spawn"],
    )
    .into_iter()
    .filter(|p| !p.ends_with("bvc-service/src/pool.rs"))
    .collect();
    assert!(
        spawners.is_empty(),
        "threads are spawned outside bvc-service/src/pool.rs:\n{}",
        shown(&spawners)
    );
    let sizers = naming(&sources, text, &["available_parallelism"]);
    assert!(
        sizers.len() <= 1,
        "available_parallelism is read in more than one file:\n{}",
        shown(&sizers)
    );
}

#[test]
fn incremental_ready_set() {
    // The asynchronous scheduler draws from the ready set `ReadyLinks` keeps
    // up to date (links.rs).  Asking every channel whether it can deliver,
    // once per delivery, is the n² scan growing back; it survives only as
    // links.rs's test oracle.
    let asim = non_test(&root().join("crates/bvc-net/src/asim.rs"));
    let per_channel = lines_with(&asim, "links.ready(");
    let scans = (asim.lines())
        .filter(|line| {
            line.contains("(0..n)") || line.contains("in 0..n") || line.contains("0..n * n")
        })
        .count();
    assert!(
        per_channel == 0 && scans == 0,
        "asim.rs outside tests asks channels one by one ({per_channel} `links.ready(` lines, \
         {scans} `0..n` scans): pick from `ReadyLinks::ready_channels`"
    );
}

#[test]
fn two_schedulers() {
    // bvc-net has two executors: lock-step rounds and the seeded event
    // simulator, whose `DeliveryPolicy` is the one scheduling choice and
    // replays from its seed.  An OS-scheduled runtime only samples
    // schedules and cannot replay one, so none may come back — and no crate
    // source spawns a detached thread (the pool's `thread::scope` is the one
    // place threads start).
    let spawns = naming(&crate_sources(), text, &["thread::spawn"]);
    assert!(
        spawns.is_empty(),
        "thread::spawn under crates/*/src: bvc-service/src/pool.rs's scope is the one thread start\n{}",
        shown(&spawns)
    );
    let runtime: Vec<PathBuf> = rust_files_under(&["."])
        .into_iter()
        .filter(|p| {
            let body = text(p);
            p.ends_with("threaded.rs")
                || body.contains("run_threaded")
                || body.contains("ThreadedOutcome")
        })
        .collect();
    assert!(
        runtime.is_empty(),
        "the threaded runtime is back: SyncNetwork and AsyncNetwork are the two schedulers\n{}",
        shown(&runtime)
    );
}

#[test]
fn one_protocol_enum() {
    let mirrors: Vec<PathBuf> = files_under("crates/bvc-scenario")
        .into_iter()
        .filter(|p| {
            let body = text(p);
            body.match_indices("enum Protocol").any(|(at, hit)| {
                !body[at + hit.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            })
        })
        .collect();
    assert!(
        mirrors.is_empty(),
        "bvc_scenario::Protocol is bvc_core::ProtocolKind: do not mirror the enum\n{}",
        shown(&mirrors)
    );
}

#[test]
fn one_keyed_gamma_path() {
    // A cache probe gathers its key from a borrowed, already canonical view.
    // A `canonical_order(` call in the cache front end is the per-probe
    // clone-and-sort growing back (the engine-miss path may materialise
    // once); `find_point_levelled` is the owned-multiset path it replaced.
    let cache = non_test(&root().join("crates/bvc-geometry/src/cache.rs"));
    let sorts = lines_with(&cache, "canonical_order(");
    assert!(
        sorts <= 1,
        "cache.rs calls canonical_order( {sorts} times outside tests: key the view, sort nothing per probe"
    );
    let levelled = naming(&files_under("crates"), text, &["find_point_levelled"]);
    assert!(
        levelled.is_empty(),
        "find_point_levelled is back: GammaCache::resolve_point over a SubsetView is the one keyed path\n{}",
        shown(&levelled)
    );
}

#[test]
fn one_run_path() {
    // A protocol is a cast and a schedule, and bvc-core hands a cast to an
    // executor in exactly one place per executor (run/drive.rs).  A second
    // call site is a per-protocol driver growing back; the names below are
    // the extension point nothing implemented.
    let core: String = rust_files_under(&["crates/bvc-core/src"])
        .iter()
        .map(|p| non_test(p) + "\n")
        .collect();
    for executor in ["SyncNetwork::new(", "AsyncNetwork::new("] {
        let sites = lines_with(&core, executor);
        assert!(
            sites == 1,
            "`{executor}` must occur exactly once outside tests under crates/bvc-core/src, found {sites}"
        );
    }
    let drivers = naming(
        &rust_files_under(&["crates", "src", "tests", "examples"]),
        text,
        &["ProtocolDriver", "run_with(", "driver_for"],
    );
    assert!(
        drivers.is_empty(),
        "the pluggable-driver surface is back: BvcSession::run is the one dispatch point\n{}",
        shown(&drivers)
    );
}

#[test]
fn one_hull_family() {
    // Γ, Γ_α and the leave-one-out intersection are three constructors of
    // bvc-geometry/src/family.rs: one place solves the joint LP, one place
    // turns an index subset (streamed, or named by the depth count) into a
    // hull, and the cache asks one engine function and knows no engine by
    // name.
    let geometry = rust_files_under(&["crates/bvc-geometry/src"]);
    let joint = naming(&geometry, non_test, &["joint_candidate("]);
    assert!(
        joint.len() == 1,
        "`joint_candidate(` must appear in exactly one non-test file of bvc-geometry, found:\n{}",
        shown(&joint)
    );
    let builders: Vec<PathBuf> = naming(&geometry, non_test, &["ConvexHull::new("])
        .into_iter()
        .filter(|p| non_test(p).contains(".select("))
        .collect();
    assert!(
        builders.len() == 1,
        "subset hulls (`ConvexHull::new(` over `.select(`) must be built in exactly one non-test file of bvc-geometry, found:\n{}",
        shown(&builders)
    );
    let cache = non_test(&root().join("crates/bvc-geometry/src/cache.rs"));
    for engine in [
        "relaxed_gamma_point",
        "k_relaxed_point",
        "find_point_presorted",
    ] {
        assert!(
            !cache.contains(engine),
            "cache.rs names `{engine}` outside tests: it knows keys, levels and counters, and asks engine_point"
        );
    }
    let asks = lines_with(&cache, "engine_point(");
    assert!(
        asks == 1,
        "cache.rs must call engine_point( exactly once outside tests, found {asks}"
    );
    let copies = naming(
        &rust_files_under(&["crates", "src", "tests", "examples"]),
        text,
        &[
            "find_point_active",
            "naive_find_point",
            "common_point_lazy",
            "common_point_of_subsets",
            "SafeArea",
        ],
    );
    assert!(
        copies.is_empty(),
        "a hand-written copy of the hull family is back: HullFamily is the one loop, fallback and stream\n{}",
        shown(&copies)
    );
}

#[test]
fn one_depth_engine() {
    // The strict d ≤ 3 Γ path is the depth region alone: one module,
    // `bvc-geometry/src/depth.rs`, asked from gamma.rs, and from hull.rs
    // for a hull's own region at f = 0.  Its planar `Region` and its
    // spatial `Space` are each built once per query by the one membership
    // test (and once per d ≤ 3 hull), and answer membership (the planar one
    // asks its exact depth count first), the point and emptiness.  So the
    // strict d ≤ 3 path, f = 0 included, constructs no `HullFamily`: the
    // subset hulls are built only in the d ≥ 4 arm of that test (and for
    // Γ_α and the leave-one-out intersection), the joint LP lives in one file and the
    // cache knows no engine by name.
    let geometry = rust_files_under(&["crates/bvc-geometry/src"]);
    // A d ≤ 3 hull is its own depth region at f = 0: hull.rs builds one
    // planar or one spatial region per hull, and nothing else.
    let callers: Vec<PathBuf> = naming(&geometry, text, &["depth::"])
        .into_iter()
        .filter(|p| !p.ends_with("depth.rs"))
        .collect();
    assert!(
        shown(&callers) == "crates/bvc-geometry/src/gamma.rs\ncrates/bvc-geometry/src/hull.rs",
        "the depth module must be called from gamma.rs and hull.rs only, found:\n{}",
        shown(&callers)
    );
    let gamma = non_test(&root().join("crates/bvc-geometry/src/gamma.rs"));
    let hull = non_test(&root().join("crates/bvc-geometry/src/hull.rs"));
    for (file, code) in [("gamma.rs", &gamma), ("hull.rs", &hull)] {
        for question in ["depth::Region::new(", "depth::Space::new("] {
            let asks = lines_with(code, question);
            assert!(
                asks == 1,
                "{file} must ask {question} exactly once, found {asks}"
            );
        }
    }
    let depth = non_test(&root().join("crates/bvc-geometry/src/depth.rs"));
    let planar_membership = depth
        .split("pub(crate) fn contains(&self, z: Xy)")
        .nth(1)
        .and_then(|rest| rest.split("\n    }\n").next())
        .unwrap_or_default();
    assert!(
        planar_membership.contains("verdict(") && !gamma.contains("verdict("),
        "the exact depth count is asked inside depth.rs, first by the planar region's membership \
         (`Region::contains`), and never from gamma.rs"
    );
    let family_sites: Vec<&str> = gamma
        .lines()
        .map(str::trim)
        .filter(|line| line.contains("HullFamily::gamma("))
        .collect();
    assert!(
        family_sites
            .iter()
            .all(|line| line.starts_with("_ => Engine::Hulls("))
            && gamma.contains("2 => Engine::Plane(depth::Region::new(")
            && gamma.contains("3 => Engine::Space(depth::Space::new(")
            && !gamma.contains("f == 0"),
        "the strict d ≤ 3 path, f = 0 included, must construct no HullFamily: build the \
         subset hulls only in the d ≥ 4 arm of Membership::new, found:\n{}",
        family_sites.join("\n")
    );
    let cache = non_test(&root().join("crates/bvc-geometry/src/cache.rs"));
    assert!(
        !cache.contains("depth"),
        "cache.rs names the depth engine: it knows keys, levels and counters, and asks engine_point"
    );
    let joint = naming(&geometry, non_test, &["joint_candidate("]);
    assert!(
        joint.len() == 1 && joint[0].ends_with("bvc-geometry/src/family.rs"),
        "`joint_candidate(` must stay in family.rs alone, found:\n{}",
        shown(&joint)
    );
}

#[test]
fn one_planar_predicate() {
    // The plane has one orientation predicate, Shewchuk's static filter,
    // written once in `bvc-geometry/src/planar.rs`: the depth region keeps
    // member halfplanes by it, for Γ and, at f = 0, for a d ≤ 3 hull, whose
    // membership runs no LP; the membership LP serves d ≥ 4.  Its exact stage
    // (error-free sums and products, an expansion sum) is written there
    // once too, behind the same filter, and is what the depth count asks.
    // Space has one too, `orient3d`: its own static filter bound
    // (`o3derrboundA`) and an exact stage built from the same error-free
    // sums and products, by which the spatial depth region keeps its sides.
    let geometry = rust_files_under(&["crates/bvc-geometry/src"]);
    for needle in [
        "const ORIENT_ERROR_BOUND",
        "3.330_669_073_875_472e-16",
        "const ORIENT3D_ERROR_BOUND",
        "7.771_561_172_376_103e-16",
        "fn orient(",
        "fn orient_exact(",
        "fn orient3d(",
        "fn two_sum(",
        "fn two_product(",
        "fn grow<",
        "fn estimate(",
    ] {
        let defining = naming(&geometry, text, &[needle]);
        let copies: usize = geometry.iter().map(|p| lines_with(&text(p), needle)).sum();
        assert!(
            copies == 1 && shown(&defining) == "crates/bvc-geometry/src/planar.rs",
            "`{needle}` must be written once, in planar.rs; found {copies} in:\n{}",
            shown(&defining)
        );
    }
    let planar = root().join("crates/bvc-geometry/src/planar.rs");
    let elsewhere: Vec<PathBuf> = naming(
        &rust_files_under(&["crates", "src", "tests", "examples", "benchmark/src"]),
        text,
        &["two_sum", "two_product"],
    )
    .into_iter()
    .filter(|p| *p != planar)
    .collect();
    assert!(
        elsewhere.is_empty(),
        "`two_sum` and `two_product` belong to planar.rs's exact stage alone, found in:\n{}",
        shown(&elsewhere)
    );
    let hull = non_test(&root().join("crates/bvc-geometry/src/hull.rs"));
    let contains = hull
        .split("pub fn contains(")
        .nth(1)
        .and_then(|rest| rest.split("\n    }\n").next())
        .unwrap_or_default();
    let lp_lines: Vec<&str> = contains
        .lines()
        .filter(|line| line.contains("membership_lp("))
        .collect();
    let arm = |pattern: &str| contains.find(pattern).unwrap_or(usize::MAX);
    let region = hull
        .split("fn depth_region(")
        .nth(1)
        .and_then(|rest| rest.split("\n    }\n").next())
        .unwrap_or_default();
    assert!(
        lp_lines.len() == 1
            && contains.matches("_ =>").count() == 1
            && arm("2 | 3 => match self.region.get_or_init(|| self.depth_region())") < arm("_ =>")
            && arm("_ =>") < arm("membership_lp(")
            && region.contains("2 => Region::Plane(depth::Region::new(")
            && region.contains("_ => Region::Space(depth::Space::new("),
        "ConvexHull::contains reaches `membership_lp(` only for d ≥ 4 (its one `_ =>` arm): \
         at d = 2 and d = 3 the hull's depth region answers"
    );
}

#[test]
fn one_round_structure() {
    // A round is collect → Step 2 → stop, written once in bvc-core/src/
    // rounds.rs: one lock-step round body (so three `SyncProcess` impls in
    // the crate: exact, directed, the state exchange) and one place that
    // records a round's state.
    let core = rust_files_under(&["crates/bvc-core/src"]);
    let body: String = core.iter().map(|p| non_test(p) + "\n").collect();
    let sync_impls = lines_with(&body, "impl SyncProcess for");
    assert!(
        sync_impls <= 3,
        "`impl SyncProcess for` occurs {sync_impls} times outside tests under crates/bvc-core/src: \
         a lock-step state exchange is a constructor of StateExchangeProcess"
    );
    let pushes = lines_with(&body, "history.push(");
    assert!(
        pushes == 1,
        "`history.push(` must occur exactly once outside tests under crates/bvc-core/src \
         (IterateCore::close_round), found {pushes}"
    );
    // The caller-less third copy of the round body stays deleted.
    let everywhere: Vec<PathBuf> = ["crates", "src", "examples", "tests"]
        .iter()
        .flat_map(|dir| files_under(dir))
        .collect();
    let baseline = naming(
        &everywhere,
        text,
        &["scalar_approx", "IterativeScalarProcess"],
    );
    assert!(
        baseline.is_empty(),
        "the iterative scalar baseline is named again (nothing ever called it):\n{}",
        shown(&baseline)
    );
    // "Was this failure expected" is ScenarioOutcome::expected_solvable; the
    // JSON-side reading in report.rs is the only other statement of the rule.
    let predicate: String = crate_sources().iter().map(|p| non_test(p) + "\n").collect();
    let spelled = lines_with(&predicate, "!t.expected_solvable");
    assert!(
        spelled == 1,
        "`!t.expected_solvable` must occur exactly once outside tests under crates/*/src, found {spelled}"
    );
}

#[test]
fn one_gamma_seam() {
    // Every bvc-core process, Byzantine skeletons included, takes the run's
    // Γ cache as a required constructor argument and asks Γ through it: no
    // cache-or-engine fork, no optional cache builder, no call to the bare
    // engine.  The only optional cache is the `build_zi_*_cached` argument
    // (`None` = a fresh cache for the call) and RunConfig's cross-run share.
    let core = rust_files_under(&["crates/bvc-core/src"]);
    let uncached = naming(
        &core,
        non_test,
        &[
            "Some(cache) => cache.",
            "gamma_point_of(",
            "with_gamma_cache",
        ],
    );
    assert!(
        uncached.is_empty(),
        "a bvc-core process asks Γ around the run's cache again (a cache fork, the bare engine or an optional cache builder):\n{}",
        shown(&uncached)
    );
    let body = |p: &PathBuf| non_test(p) + "\n";
    let optional: String = core.iter().map(body).collect();
    let arguments = lines_with(&optional, "Option<&GammaCache>");
    let witness = lines_with(
        &non_test(&root().join("crates/bvc-core/src/witness.rs")),
        "cache: Option<&GammaCache>,",
    );
    assert!(
        arguments == 2 && witness == 2,
        "`Option<&GammaCache>` may appear only in the two build_zi_*_cached signatures of witness.rs, \
         found {arguments} line(s) in bvc-core, {witness} of them there"
    );
    let fields = naming(&core, non_test, &["Option<SharedGammaCache>"]);
    assert!(
        fields
            .iter()
            .all(|p| p.ends_with("crates/bvc-core/src/run/config.rs")),
        "an optional Γ cache outside RunConfig (the cross-run share):\n{}",
        shown(&fields)
    );
}

#[test]
fn one_resilience_table() {
    // Every floor is a row of ProtocolKind::min_processes: the four-variant
    // mirror of ProtocolKind and the chaos lab's restatement stay deleted…
    let restated = naming(
        &rust_files_under(&["crates", "src", "examples", "tests"]),
        text,
        &["enum Setting", "Setting::", "strict_bound"],
    );
    assert!(
        restated.is_empty(),
        "a second resilience table is back: ProtocolKind::min_processes is the one\n{}",
        shown(&restated)
    );
    // …and each paper-specific row is written on exactly one line.
    let sources: String = crate_sources().iter().map(|p| non_test(p) + "\n").collect();
    for row in ["(d + 2) * f + 1", "(d + 4) * f + 1"] {
        let lines = lines_with(&sources, row);
        assert!(
            lines == 1,
            "`{row}` must occur on exactly one line outside tests under crates/*/src, found {lines}"
        );
    }
}

#[test]
fn one_gamma_account() {
    // A Γ query is counted once, in its `gamma` trace event (cache level,
    // engine path, probe outcome).  The cache keeps its own hits and misses
    // and nothing else; membership answers a bool and names no path.
    let named = naming(
        &rust_files_under(&["crates", "src", "tests", "examples"]),
        text,
        &[
            "GammaCounters",
            "contains_attributed",
            "MultiplicityAccept",
            "BoxReject",
            "path_count(",
            "is_consistent(",
        ],
    );
    assert!(
        named.is_empty(),
        "a second account of Γ queries is back: the gamma trace event is the one\n{}",
        shown(&named)
    );
    let cache = non_test(&root().join("crates/bvc-geometry/src/cache.rs"));
    let increments = lines_with(&cache, "fetch_add(");
    assert!(
        increments == 2,
        "cache.rs must have exactly two `fetch_add(` lines outside tests (hits, misses), found {increments}"
    );
}

#[test]
fn one_step2_fold() {
    // Step 2 of the iterative algorithms is one call: the centroid of every
    // (n−f)-subset's Γ point comes from `GammaCache::subset_centroid`,
    // which at d = 1 reads each subset's interval by rank off one sort.  A
    // protocol that builds `Z_i` with `zi_full` and averages it is the
    // per-subset `Point` fold growing back.
    for file in [
        "crates/bvc-core/src/restricted.rs",
        "crates/bvc-core/src/approx.rs",
    ] {
        let body = non_test(&root().join(file));
        assert!(
            !(body.contains("zi_full") && body.contains("average_state")),
            "{file} averages a `zi_full` Z_i outside tests: ask GammaCache::subset_centroid"
        );
    }
    // The d = 1 interval is read in one place, `d1_interval`, and its
    // emptiness test and midpoint are written once, in `d1_midpoint`.
    let defining = naming(&crate_sources(), non_test, &["fn d1_interval("]);
    assert!(
        shown(&defining) == "crates/bvc-geometry/src/gamma.rs",
        "`fn d1_interval(` must be defined once, in gamma.rs; found in:\n{}",
        shown(&defining)
    );
    let gamma = non_test(&root().join("crates/bvc-geometry/src/gamma.rs"));
    for rule in ["(lo <= hi + D1_TOLERANCE)", "0.5 * (lo + hi)"] {
        let copies = lines_with(&gamma, rule);
        assert!(
            copies == 1,
            "gamma.rs writes `{rule}` {copies} times outside tests: the d = 1 rule is `d1_midpoint`"
        );
    }
    // Nothing around the engine reads scalar intervals itself: the cache
    // and the Step-2 callers name no coordinate, rank end or tolerance.
    let step2: Vec<PathBuf> = [
        "crates/bvc-geometry/src/cache.rs",
        "crates/bvc-core/src/witness.rs",
        "crates/bvc-core/src/restricted.rs",
        "crates/bvc-core/src/approx.rs",
    ]
    .iter()
    .map(|file| root().join(file))
    .collect();
    let readers = naming(&step2, non_test, &["coord(0)", "- 1 - f", "D1_TOLERANCE"]);
    assert!(
        readers.is_empty(),
        "a d = 1 interval is computed outside `d1_interval`:\n{}",
        shown(&readers)
    );
}

#[test]
fn one_trace_schema() {
    // The bvc-trace/v1 schema is written once, in event.rs's `schema!`
    // table: `to_json` writes a line, `from_json` reads it back, `check_trace`
    // is "every line decodes", and the report matches decoded events.  A
    // field table, a type letter or a string-keyed field reader is a second
    // copy growing back.
    let copies = naming(
        &rust_files_under(&["."]),
        text,
        &[
            "EVENT_FIELDS",
            "type_ok(",
            "field_u(",
            "field_s(",
            "field_b(",
        ],
    );
    assert!(
        copies.is_empty(),
        "a second copy of the trace schema is back: TraceEvent::from_json is the one reader\n{}",
        shown(&copies)
    );
    // The binary is argument parsing around `bvc_trace::report`, which
    // decodes each line once.
    let bin = text(&root().join("crates/bvc-trace/src/bin/trace_report.rs"));
    for reader in ["parse_flat", "check_trace"] {
        assert!(
            !bin.contains(reader),
            "trace_report.rs calls `{reader}`: the report reads the trace itself, once"
        );
    }
}

#[test]
fn one_pivot_rule() {
    // bvc-lp pivots under one leaving rule, the lexicographic one, which
    // cannot revisit a basis.  A second ratio test or simplex loop beside
    // it, or a recovery path that refills a tableau and reruns phase 1
    // after a stall, is the fork this guard keeps out.
    let lp = rust_files_under(&["crates/bvc-lp/src"]);
    for needle in ["fn leaving_", "fn run_simplex"] {
        let found: usize = lp.iter().map(|p| lines_with(&text(p), needle)).sum();
        assert!(
            found == 1,
            "crates/bvc-lp/src must define `{needle}` once, found {found}: one pivot rule"
        );
    }
    let simplex = non_test(&root().join("crates/bvc-lp/src/simplex.rs"));
    let fills = lines_with(&simplex, "fill_tableau(");
    assert!(
        fills == 2,
        "simplex.rs must define fill_tableau and call it once, found {fills} lines: a refilled tableau is a rerun"
    );
    let runs = lines_with(&simplex, ".run_simplex(");
    assert!(
        runs == 2,
        "simplex.rs must run the simplex once per phase, found {runs} calls"
    );
    assert!(
        !simplex.contains(".clear()"),
        "simplex.rs clears a tableau: there is no rerun to clear it for"
    );
}

#[test]
fn flat_eig() {
    // An EIG tree is one level-indexed arena of interned value ids, and a
    // relay is a dictionary of distinct values plus one id per position,
    // shared behind one `Arc`: the label of each position is implied by
    // round, sender and position.  A label map, a label on the wire or a
    // majority over cloned values is the old tree growing back.
    let eig = non_test(&root().join("crates/bvc-broadcast/src/eig.rs"));
    assert!(
        !eig.contains("HashMap"),
        "eig.rs names `HashMap` outside tests: the tree is one flat arena"
    );
    let broadcast = non_test(&root().join("crates/bvc-broadcast/src/broadcast.rs"));
    let relays: Vec<&str> = broadcast
        .lines()
        .map(str::trim)
        .filter(|line| line.starts_with("Relay("))
        .collect();
    assert!(
        relays == ["Relay(Arc<Relay<V>>),"],
        "broadcast.rs's `Relay` variant must be `Relay(Arc<Relay<V>>)`, found {relays:?}: a relay is shared, not copied per receiver"
    );
    let body = eig
        .split_once("pub struct Relay<V> {")
        .and_then(|(_, rest)| rest.split_once('}'))
        .map_or("", |(body, _)| body);
    let fields: Vec<&str> = body
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with("//"))
        .collect();
    assert!(
        fields == ["pub dictionary: Vec<V>,", "pub ids: Vec<u32>,"],
        "eig.rs's `Relay` must hold a dictionary and one id per position, found {fields:?}: a relay holds values once and no label"
    );
    // Which slots a relay addresses is one table per `(n, f)`, built by the
    // recursive walk once: its definition, its recursion and the one call
    // in `ChildSlots::new`.  A tree that walks per relay or receive is the
    // per-message cost growing back.
    let walks = lines_with(&eig, "walk_omitting(");
    assert!(
        walks == 3,
        "eig.rs names `walk_omitting(` on {walks} lines outside tests, not 3: only the child-slot table's builder walks"
    );
    let builder = eig
        .split_once("impl ChildSlots {")
        .and_then(|(_, rest)| rest.split_once("\n}"))
        .map_or("", |(body, _)| body);
    assert!(
        lines_with(builder, "walk_omitting(") == 1,
        "`ChildSlots` must call `walk_omitting` once: it is the table's builder"
    );
    // The table is the run's: the run path builds one per cast and passes it
    // to every `ExactBvcProcess`, Byzantine skeletons included, and it is
    // shared through that `Arc`, never through a process-wide cache.
    let built = naming(
        &rust_files_under(&["crates/bvc-core/src"]),
        non_test,
        &["ChildSlots::new("],
    );
    assert!(
        shown(&built) == "crates/bvc-core/src/run/drive.rs",
        "bvc-core builds EIG child-slot tables outside the run path: one table per run\n{}",
        shown(&built)
    );
    let cached: Vec<PathBuf> = rust_files_under(&["crates/bvc-broadcast"])
        .into_iter()
        .filter(|path| {
            let body = non_test(path);
            let item = |word: &str| word == "static" || word == "thread_local!";
            body.split_whitespace().any(item) || body.contains("OnceLock")
        })
        .collect();
    assert!(
        cached.is_empty(),
        "bvc-broadcast keeps a thread-local or static outside tests\n{}",
        shown(&cached)
    );
    let retired = naming(
        &rust_files_under(&["crates", "src", "tests", "examples", "benchmark/src"]),
        non_test,
        &["strict_majority", "type Label", "labels_at_level"],
    );
    assert!(
        retired.is_empty(),
        "a label-keyed EIG tree is back\n{}",
        shown(&retired)
    );
}

#[test]
fn one_scenario_vocabulary() {
    // The chaos lab samples, mutates, shrinks and runs
    // `bvc_scenario::ScenarioSpec` itself.  A genome type mirroring the
    // spec field by field, or a TOML round trip on every evaluation, is the
    // second description growing back: TOML is read and written only at the
    // reproducer boundary, repro.rs.
    let chaos = rust_files_under(&["crates/bvc-chaos/src"]);
    let mirrors = naming(
        &chaos,
        non_test,
        &["ChaosGenome", "ValidityGene", "FaultGene"],
    );
    assert!(
        mirrors.is_empty(),
        "a mirror of ScenarioSpec is back in the chaos lab: the spec is the genome\n{}",
        shown(&mirrors)
    );
    let parsers: Vec<PathBuf> = naming(&chaos, non_test, &["from_toml"])
        .into_iter()
        .filter(|p| !p.ends_with("crates/bvc-chaos/src/repro.rs"))
        .collect();
    assert!(
        parsers.is_empty(),
        "chaos lab code outside repro.rs parses TOML: evaluation runs the spec it is given\n{}",
        shown(&parsers)
    );
}

#[test]
fn one_membership_rule() {
    // Hull and Γ membership have one reject rule, `reject_margin(scale)` in
    // `bvc-geometry/src/tolerance.rs`: a point beyond a supporting line by
    // more than `HULL_TOLERANCE · scale` in units of the line's normal,
    // wherever the line lies.  The box faces of a d ≥ 4 hull and of the
    // d ≥ 4 trimmed box, and the witness check, all compare against it; a
    // bare `HULL_TOLERANCE` in a comparison is a second rule.  The
    // rule holds everywhere because no LP row is built from absolute
    // generator coordinates: the membership and joint LPs state
    // `Σ α_i (g_i − o)` relative to a generator `o` through one builder,
    // `hull::local_combination_lp`, the only bvc-geometry code that calls
    // `add_constraint(`, so an LP's reach past a face is its residual and
    // no reject needs a term for the distance from the origin.
    let code = |path: &Path| -> Vec<String> {
        non_test(path)
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"))
            .map(str::to_string)
            .collect()
    };
    let tolerance = root().join("crates/bvc-geometry/src/tolerance.rs");
    for path in crate_sources() {
        let lines = code(&path);
        let bare: Vec<&String> = if path == tolerance {
            let body = non_test(&path);
            let rule = body
                .split("pub fn reject_margin(")
                .nth(1)
                .and_then(|rest| rest.split("\n}\n").next())
                .unwrap_or_default();
            assert!(
                lines_with(rule, "HULL_TOLERANCE") == 1,
                "tolerance.rs must define `pub fn reject_margin(` from HULL_TOLERANCE"
            );
            let parameters = rule.split(')').next().unwrap_or_default();
            assert!(
                !parameters.contains(','),
                "`reject_margin` takes one parameter, the normal's scale; found \
                 `reject_margin({parameters})`: a second one reads the line's place"
            );
            lines
                .iter()
                .filter(|line| line.contains("HULL_TOLERANCE") && !rule.contains(line.as_str()))
                .filter(|line| !line.contains("pub const HULL_TOLERANCE"))
                .filter(|line| !line.contains("FEASIBILITY_TOLERANCE < HULL_TOLERANCE"))
                .collect()
        } else {
            lines
                .iter()
                .filter(|line| line.contains("HULL_TOLERANCE"))
                .filter(|line| !line.trim_start().starts_with("use ") && !line.contains("pub use "))
                .collect()
        };
        assert!(
            bare.is_empty(),
            "{} compares against HULL_TOLERANCE outside `reject_margin`:\n{}",
            shown(std::slice::from_ref(&path)),
            bare.iter()
                .map(|l| l.as_str())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    let rows = naming(
        &rust_files_under(&["crates/bvc-geometry/src"]),
        non_test,
        &["add_constraint("],
    );
    let hull = non_test(&root().join("crates/bvc-geometry/src/hull.rs"));
    let builder = hull
        .split("fn local_combination_lp(")
        .nth(1)
        .and_then(|rest| rest.split("\n}\n").next())
        .unwrap_or_default();
    assert!(
        shown(&rows) == "crates/bvc-geometry/src/depth.rs\ncrates/bvc-geometry/src/hull.rs"
            && lines_with(&hull, "add_constraint(") == lines_with(builder, "add_constraint("),
        "LP rows in bvc-geometry are built only by `hull::local_combination_lp`, relative to a \
         generator, and by the spatial depth region's centre LP; `add_constraint(` found in:\n{}",
        shown(&rows)
    );
    // The depth region's centre LP, the one other row builder, reads its
    // rows off the region's sides and box, which are written relative to
    // the box's low corner: its function takes no point of `Y` and reads no
    // absolute coordinate.
    let depth = non_test(&root().join("crates/bvc-geometry/src/depth.rs"));
    let centre = depth
        .split("fn centre(")
        .nth(1)
        .and_then(|rest| rest.split("\n}\n").next())
        .unwrap_or_default();
    let signature = centre.split('{').next().unwrap_or_default();
    assert!(
        lines_with(&depth, "add_constraint(") == 1
            && lines_with(centre, "add_constraint(") == 1
            && signature.contains("sides: &[Halfspace<3>]")
            && ["Point", "PointMultiset", ".coord(", "self", "lo["]
                .iter()
                .all(|absolute| !centre.contains(absolute)),
        "depth.rs builds LP rows only in `fn centre(`, from the region's sides and box in its \
         frame, never from a member or an absolute coordinate:\n{centre}"
    );
    let builders = [
        ("hull.rs", "fn membership_lp(", "\n    }\n"),
        ("family.rs", "fn joint_candidate(", "\n}\n"),
    ];
    for (file, builder, end) in builders {
        let code = non_test(&root().join("crates/bvc-geometry/src").join(file));
        let built = code
            .split(builder)
            .nth(1)
            .and_then(|rest| rest.split(end).next())
            .unwrap_or_default();
        assert!(
            built.contains("local_combination_lp("),
            "{file}'s `{builder}` must build its LP with `local_combination_lp`"
        );
    }
    // One equality tolerance, and one canonical order: the lexicographic
    // `total_cmp` order of coordinate vectors is `bvc_geometry::canonical_cmp`.
    let retired = naming(
        &rust_files_under(&["."]),
        text,
        &["MEMBER_EQ_TOLERANCE", "fn lex_cmp"],
    );
    assert!(
        retired.is_empty(),
        "a second equality tolerance or lexicographic order is back:\n{}",
        shown(&retired)
    );
    let orders: Vec<PathBuf> = crate_sources()
        .into_iter()
        .filter(|p| lines_with(&non_test(p), ".total_cmp(") > 0)
        .collect();
    let copies: usize = orders
        .iter()
        .map(|p| lines_with(&non_test(p), ".total_cmp("))
        .sum();
    assert!(
        copies == 1 && shown(&orders) == "crates/bvc-geometry/src/point.rs",
        "the canonical order must be written once, `canonical_cmp` in point.rs; \
         `.total_cmp(` found {copies} times in:\n{}",
        shown(&orders)
    );
}

#[test]
fn one_command_line() {
    // The six binaries read their command lines through one reader,
    // `bvc_trace::cli`: a table of `(flag, takes_value)`, each flag at most
    // once, every value present and not itself a flag, and every error
    // `<program>: <reason>`, the usage and exit 2 before anything runs.  A
    // binary that reads `std::env::args` itself, or matches on an argument,
    // is a second reader growing back.
    let reader = root().join("crates/bvc-trace/src/cli.rs");
    let sources = crate_sources();
    let readers = naming(&sources, text, &["env::args"]);
    let reads: usize = readers
        .iter()
        .map(|p| lines_with(&text(p), "env::args"))
        .sum();
    assert!(
        reads == 1 && readers == [reader],
        "`env::args` is read on {reads} lines under crates/*/src, not once in \
         bvc-trace/src/cli.rs:\n{}",
        shown(&readers)
    );
    let binaries: Vec<PathBuf> = sources
        .into_iter()
        .filter(|p| p.parent().is_some_and(|dir| dir.ends_with("src/bin")))
        .collect();
    assert!(
        binaries.len() == 6,
        "expected the six binaries under crates/*/src/bin, found:\n{}",
        shown(&binaries)
    );
    let loops = naming(&binaries, text, &["match arg.as_str()"]);
    assert!(
        loops.is_empty(),
        "a binary matches on its arguments by hand: declare a flag table\n{}",
        shown(&loops)
    );
    let unread: Vec<PathBuf> = binaries
        .into_iter()
        .filter(|p| !text(p).contains("Cli::new("))
        .collect();
    assert!(
        unread.is_empty(),
        "a binary does not read its command line through `bvc_trace::cli::Cli`\n{}",
        shown(&unread)
    );
    assert!(
        !root().join("crates/bvc-scenario/src/cli.rs").exists(),
        "bvc-scenario/src/cli.rs is back: the reader is bvc_trace::cli"
    );
}
