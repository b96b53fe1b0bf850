//! Typed scenario specifications parsed from the TOML subset.
//!
//! A scenario composes four orthogonal models — topology, link quality,
//! working schedule, and workload — plus a parameter matrix (protocols ×
//! duty ratios × seeds) that the campaign runner expands into jobs.
//! Parsing is strict: unknown tables or keys are errors, because a
//! typo'd knob that silently falls back to a default would change the
//! campaign while leaving the spec looking correct.

use ldcf_net::NeighborTable;
use serde::Value;

/// How node positions and connectivity are produced.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// `rows × cols` lattice with 4-neighbor links of uniform quality.
    Grid {
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
        /// Uniform link PRR.
        prr: f64,
    },
    /// Street-grid with line-of-sight links up to `reach` blocks.
    Manhattan {
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
        /// Maximum line-of-sight distance in blocks.
        reach: usize,
        /// PRR of a one-block link.
        q_adjacent: f64,
        /// PRR at the full reach.
        q_at_reach: f64,
    },
    /// Uniform random positions in a square, disk connectivity.
    RandomGeometric {
        /// Node count (including the source).
        nodes: usize,
        /// Square side length (metres).
        side: f64,
        /// Connection radius (metres).
        radius: f64,
        /// PRR of a zero-length link.
        q_near: f64,
        /// PRR at the connection radius.
        q_far: f64,
    },
    /// Clustered deployment through the GreenOrbs-style generator
    /// (propagation + long-term PRR models, pruned and re-rolled until
    /// connected).
    ClusteredForest {
        /// Node count (including the source).
        nodes: usize,
        /// Cluster count.
        clusters: usize,
        /// Field width (metres).
        width: f64,
        /// Field height (metres).
        height: f64,
    },
    /// The committed 299-node evaluation trace (`ldcf-trace`).
    Trace {
        /// Generator seed of the trace.
        trace_seed: u64,
    },
}

/// Post-pass rewriting the generated link qualities.
#[derive(Clone, Debug, PartialEq)]
pub enum LinkModel {
    /// Keep whatever the topology generator produced.
    FromTopology,
    /// Every directed link gets the same PRR.
    Uniform {
        /// The uniform PRR.
        prr: f64,
    },
    /// PRR decays linearly with link length from `q_near` to `q_far`
    /// at the longest link in the topology.
    DistanceDecay {
        /// PRR of a zero-length link.
        q_near: f64,
        /// PRR at the maximum link length.
        q_far: f64,
    },
    /// Each directed link samples a quality class (§IV-B's k-class
    /// abstraction) with the given weights.
    KClass {
        /// Class PRRs.
        classes: Vec<f64>,
        /// Relative class weights (same length as `classes`).
        weights: Vec<f64>,
        /// Seed of the class-assignment RNG.
        seed: u64,
    },
}

/// How per-node working schedules are drawn for a (duty, seed) cell.
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleModel {
    /// Every node has the same period `T`; active-slot count is
    /// `max(1, round(duty × T))`, offsets drawn per node.
    Homogeneous {
        /// The shared period in slots.
        period: u32,
    },
    /// Each node draws its period from this list, then its active slots
    /// as in the homogeneous model.
    Heterogeneous {
        /// Candidate periods.
        periods: Vec<u32>,
    },
}

/// Packet arrival pattern at the origin(s).
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadKind {
    /// All packets at the default source, slot 0 (the paper's base case).
    SingleFlood,
    /// Packets round-robin over `sources` origins (the source plus the
    /// farthest nodes), all injected at slot 0.
    MultiSource {
        /// Number of concurrent origins.
        sources: usize,
    },
    /// Packet `p` enters the source queue at slot `p × interval` —
    /// the Corollary 1 pipelining regime when `interval < E[FDL]`.
    Periodic {
        /// Inter-arrival gap in slots.
        interval: u64,
    },
}

/// Workload: arrival pattern plus run-length knobs shared by all kinds.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Arrival pattern.
    pub kind: WorkloadKind,
    /// Number of packets flooded.
    pub packets: u32,
    /// Coverage target (fraction of sensors) ending each packet's flood.
    pub coverage: f64,
    /// Slot budget per cell before the run is cut off.
    pub max_slots: u64,
}

/// The parameter matrix the campaign expands: every combination of
/// protocol × duty × seed is one cell.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixSpec {
    /// Protocol names (resolved by the runner, e.g. `"opt"`, `"dbao"`).
    pub protocols: Vec<String>,
    /// Duty ratios in `(0, 1]`.
    pub duties: Vec<f64>,
    /// Schedule/MAC seeds.
    pub seeds: Vec<u64>,
}

/// A fully parsed and validated scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in artefact paths; `[a-z0-9-]` only).
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Topology generator.
    pub topology: TopologySpec,
    /// Seed of the topology generator (shared by every cell, like the
    /// committed evaluation trace).
    pub topology_seed: u64,
    /// Link-quality post-pass.
    pub links: LinkModel,
    /// Working-schedule model.
    pub schedule: ScheduleModel,
    /// Workload.
    pub workload: Workload,
    /// Parameter matrix.
    pub matrix: MatrixSpec,
}

impl ScenarioSpec {
    /// Parse and validate a spec from TOML-subset text.
    pub fn from_toml_str(text: &str) -> Result<Self, String> {
        let doc = crate::toml::parse(text)?;
        Self::from_value(&doc)
    }

    /// Parse and validate a spec from an already-parsed document.
    pub fn from_value(doc: &Value) -> Result<Self, String> {
        check_keys(
            doc,
            "document",
            &[
                "scenario", "topology", "links", "schedule", "workload", "matrix",
            ],
        )?;
        let scenario = req_table(doc, "scenario")?;
        check_keys(scenario, "scenario", &["name", "description"])?;
        let name = req_str(scenario, "scenario", "name")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            return Err(format!(
                "scenario.name must be non-empty [a-z0-9-], got {name:?}"
            ));
        }
        let description = opt_str(scenario, "scenario", "description")?.unwrap_or_default();

        let topology_table = req_table(doc, "topology")?;
        let (topology, topology_seed) = parse_topology(topology_table)?;
        let links = match doc.get("links") {
            Some(t) => parse_links(t)?,
            None => LinkModel::FromTopology,
        };
        let schedule = parse_schedule(req_table(doc, "schedule")?)?;
        let workload = parse_workload(req_table(doc, "workload")?)?;
        let matrix = parse_matrix(req_table(doc, "matrix")?)?;

        if let ScheduleModel::Homogeneous { period } = schedule {
            for &duty in &matrix.duties {
                let active = (duty * period as f64).round().max(1.0) as u32;
                if active > period {
                    return Err(format!(
                        "duty {duty} yields {active} active slots > period {period}"
                    ));
                }
            }
        }
        Ok(Self {
            name,
            description,
            topology,
            topology_seed,
            links,
            schedule,
            workload,
            matrix,
        })
    }

    /// Number of cells the matrix expands into.
    pub fn n_cells(&self) -> usize {
        self.matrix.protocols.len() * self.matrix.duties.len() * self.matrix.seeds.len()
    }

    /// Shrink the matrix for `--quick`: the first [`QUICK_DUTIES`]
    /// duties and the first [`QUICK_SEEDS`] seeds, protocols untouched.
    /// Truncation (rather than resampling) keeps quick cells a strict
    /// subset of the full campaign, so a quick run can seed a later
    /// full run's checkpoint directory. Lives here (not in the runner)
    /// so every consumer — CLI campaign, job service, digest gates —
    /// derives the identical quickened spec and therefore the identical
    /// digest.
    pub fn quicken(mut self) -> Self {
        self.matrix.duties.truncate(QUICK_DUTIES);
        self.matrix.seeds.truncate(QUICK_SEEDS);
        self
    }
}

/// `--quick` truncation: duties kept from the spec's matrix.
pub const QUICK_DUTIES: usize = 2;
/// `--quick` truncation: seeds kept from the spec's matrix.
pub const QUICK_SEEDS: usize = 1;

fn parse_topology(t: &Value) -> Result<(TopologySpec, u64), String> {
    let kind = req_str(t, "topology", "kind")?;
    let seed = opt_u64(t, "topology", "seed")?.unwrap_or(7);
    let spec = match kind.as_str() {
        "grid" => {
            check_keys(t, "topology", &["kind", "seed", "rows", "cols", "prr"])?;
            TopologySpec::Grid {
                rows: req_usize(t, "topology", "rows")?,
                cols: req_usize(t, "topology", "cols")?,
                prr: prr_in_unit(
                    opt_f64(t, "topology", "prr")?.unwrap_or(1.0),
                    "topology.prr",
                )?,
            }
        }
        "manhattan" => {
            check_keys(
                t,
                "topology",
                &[
                    "kind",
                    "seed",
                    "rows",
                    "cols",
                    "reach",
                    "q_adjacent",
                    "q_at_reach",
                ],
            )?;
            let reach = req_usize(t, "topology", "reach")?;
            if reach == 0 {
                return Err("topology.reach must be >= 1".into());
            }
            TopologySpec::Manhattan {
                rows: req_usize(t, "topology", "rows")?,
                cols: req_usize(t, "topology", "cols")?,
                reach,
                q_adjacent: prr_in_unit(
                    opt_f64(t, "topology", "q_adjacent")?.unwrap_or(0.9),
                    "topology.q_adjacent",
                )?,
                q_at_reach: prr_in_unit(
                    opt_f64(t, "topology", "q_at_reach")?.unwrap_or(0.5),
                    "topology.q_at_reach",
                )?,
            }
        }
        "random-geometric" => {
            check_keys(
                t,
                "topology",
                &["kind", "seed", "nodes", "side", "radius", "q_near", "q_far"],
            )?;
            let q_near = prr_in_unit(
                opt_f64(t, "topology", "q_near")?.unwrap_or(0.9),
                "topology.q_near",
            )?;
            let q_far = prr_in_unit(
                opt_f64(t, "topology", "q_far")?.unwrap_or(0.5),
                "topology.q_far",
            )?;
            if q_near < q_far {
                return Err("topology.q_near must be >= q_far".into());
            }
            TopologySpec::RandomGeometric {
                nodes: req_usize(t, "topology", "nodes")?,
                side: req_pos_f64(t, "topology", "side")?,
                radius: req_pos_f64(t, "topology", "radius")?,
                q_near,
                q_far,
            }
        }
        "clustered-forest" => {
            check_keys(
                t,
                "topology",
                &["kind", "seed", "nodes", "clusters", "width", "height"],
            )?;
            TopologySpec::ClusteredForest {
                nodes: req_usize(t, "topology", "nodes")?,
                clusters: opt_u64(t, "topology", "clusters")?.unwrap_or(8) as usize,
                width: opt_f64(t, "topology", "width")?.unwrap_or(450.0),
                height: opt_f64(t, "topology", "height")?.unwrap_or(350.0),
            }
        }
        "trace" => {
            check_keys(t, "topology", &["kind", "trace_seed"])?;
            TopologySpec::Trace {
                trace_seed: opt_u64(t, "topology", "trace_seed")?.unwrap_or(42),
            }
        }
        other => {
            return Err(format!(
                "topology.kind {other:?} not one of grid | manhattan | \
                 random-geometric | clustered-forest | trace"
            ))
        }
    };
    if let TopologySpec::Grid { rows, cols, .. } | TopologySpec::Manhattan { rows, cols, .. } =
        &spec
    {
        if *rows < 2 || *cols < 2 {
            return Err("topology rows and cols must be >= 2".into());
        }
    }
    if let TopologySpec::RandomGeometric { nodes, .. }
    | TopologySpec::ClusteredForest { nodes, .. } = &spec
    {
        if *nodes < 2 {
            return Err("topology.nodes must be >= 2".into());
        }
    }
    Ok((spec, seed))
}

fn parse_links(t: &Value) -> Result<LinkModel, String> {
    let model = req_str(t, "links", "model")?;
    match model.as_str() {
        "from-topology" => {
            check_keys(t, "links", &["model"])?;
            Ok(LinkModel::FromTopology)
        }
        "uniform" => {
            check_keys(t, "links", &["model", "prr"])?;
            Ok(LinkModel::Uniform {
                prr: prr_in_unit(req_f64(t, "links", "prr")?, "links.prr")?,
            })
        }
        "distance-decay" => {
            check_keys(t, "links", &["model", "q_near", "q_far"])?;
            let q_near = prr_in_unit(req_f64(t, "links", "q_near")?, "links.q_near")?;
            let q_far = prr_in_unit(req_f64(t, "links", "q_far")?, "links.q_far")?;
            if q_near < q_far {
                return Err("links.q_near must be >= q_far".into());
            }
            Ok(LinkModel::DistanceDecay { q_near, q_far })
        }
        "k-class" => {
            check_keys(t, "links", &["model", "classes", "weights", "seed"])?;
            let classes = req_f64_array(t, "links", "classes")?;
            for (i, &c) in classes.iter().enumerate() {
                prr_in_unit(c, &format!("links.classes[{i}]"))?;
            }
            let weights = req_f64_array(t, "links", "weights")?;
            if weights.len() != classes.len() {
                return Err("links.weights must match links.classes in length".into());
            }
            if classes.is_empty() {
                return Err("links.classes must be non-empty".into());
            }
            if weights.iter().any(|&w| w <= 0.0 || !w.is_finite()) {
                return Err("links.weights must all be positive".into());
            }
            Ok(LinkModel::KClass {
                classes,
                weights,
                seed: opt_u64(t, "links", "seed")?.unwrap_or(11),
            })
        }
        other => Err(format!(
            "links.model {other:?} not one of from-topology | uniform | \
             distance-decay | k-class"
        )),
    }
}

/// Periods are untrusted: each is checked in 64 bits before it is
/// narrowed (so 2^32 + 2 is refused, not wrapped to 2), and the wake
/// calendar they imply — their LCM — must fit
/// [`NeighborTable::MAX_CALENDAR_SLOTS`], which also bounds what a
/// schedule draw allocates.
fn parse_schedule(t: &Value) -> Result<ScheduleModel, String> {
    let cap = NeighborTable::MAX_CALENDAR_SLOTS;
    let model = req_str(t, "schedule", "model")?;
    match model.as_str() {
        "homogeneous" => {
            check_keys(t, "schedule", &["model", "period"])?;
            let period = req_u64(t, "schedule", "period")?;
            if period < 2 {
                return Err("schedule.period must be >= 2".into());
            }
            if period > u64::from(cap) {
                return Err(format!(
                    "schedule.period {period} exceeds the {cap}-slot wake-calendar cap"
                ));
            }
            Ok(ScheduleModel::Homogeneous {
                period: period as u32,
            })
        }
        "heterogeneous" => {
            check_keys(t, "schedule", &["model", "periods"])?;
            let raw = req_u64_array(t, "schedule", "periods")?;
            if raw.is_empty() || raw.iter().any(|&p| p < 2) {
                return Err("schedule.periods must be a non-empty list of values >= 2".into());
            }
            // Saturate: a value past u32 is past the cap as well.
            let periods: Vec<u32> = raw
                .iter()
                .map(|&p| u32::try_from(p).unwrap_or(u32::MAX))
                .collect();
            if NeighborTable::calendar_period_of(periods.iter().copied()).is_none() {
                return Err(format!(
                    "schedule.periods {raw:?}: their least common multiple exceeds the \
                     {cap}-slot wake-calendar cap"
                ));
            }
            Ok(ScheduleModel::Heterogeneous { periods })
        }
        other => Err(format!(
            "schedule.model {other:?} not one of homogeneous | heterogeneous"
        )),
    }
}

fn parse_workload(t: &Value) -> Result<Workload, String> {
    let kind_name = req_str(t, "workload", "kind")?;
    let kind = match kind_name.as_str() {
        "single-flood" => {
            check_keys(t, "workload", &["kind", "packets", "coverage", "max_slots"])?;
            WorkloadKind::SingleFlood
        }
        "multi-source" => {
            check_keys(
                t,
                "workload",
                &["kind", "sources", "packets", "coverage", "max_slots"],
            )?;
            let sources = req_usize(t, "workload", "sources")?;
            if sources < 2 {
                return Err("workload.sources must be >= 2 (use single-flood otherwise)".into());
            }
            WorkloadKind::MultiSource { sources }
        }
        "periodic" => {
            check_keys(
                t,
                "workload",
                &["kind", "interval", "packets", "coverage", "max_slots"],
            )?;
            let interval = req_u64(t, "workload", "interval")?;
            if interval == 0 {
                return Err("workload.interval must be >= 1".into());
            }
            WorkloadKind::Periodic { interval }
        }
        other => Err(format!(
            "workload.kind {other:?} not one of single-flood | multi-source | periodic"
        ))?,
    };
    let packets = opt_u64(t, "workload", "packets")?.unwrap_or(1);
    if packets == 0 {
        return Err("workload.packets must be >= 1".into());
    }
    let packets = u32::try_from(packets)
        .map_err(|_| format!("workload.packets {packets} exceeds {}", u32::MAX))?;
    if let WorkloadKind::MultiSource { sources } = kind {
        if (packets as usize) < sources {
            return Err("workload.packets must be >= workload.sources".into());
        }
    }
    let coverage = opt_f64(t, "workload", "coverage")?.unwrap_or(1.0);
    if !(coverage > 0.0 && coverage <= 1.0) {
        return Err("workload.coverage must be in (0, 1]".into());
    }
    let max_slots = opt_u64(t, "workload", "max_slots")?.unwrap_or(200_000);
    if max_slots == 0 {
        return Err("workload.max_slots must be >= 1".into());
    }
    Ok(Workload {
        kind,
        packets,
        coverage,
        max_slots,
    })
}

fn parse_matrix(t: &Value) -> Result<MatrixSpec, String> {
    check_keys(
        t,
        "matrix",
        &["protocols", "duties", "seeds", "seeds_per_cell"],
    )?;
    let protocols = req_str_array(t, "matrix", "protocols")?;
    if protocols.is_empty() {
        return Err("matrix.protocols must be non-empty".into());
    }
    let duties = req_f64_array(t, "matrix", "duties")?;
    if duties.is_empty() || duties.iter().any(|&d| !(d > 0.0 && d <= 1.0)) {
        return Err("matrix.duties must be a non-empty list in (0, 1]".into());
    }
    // Seed axis: either an explicit list, or `seeds_per_cell = N` as
    // shorthand for `[1, 2, …, N]` — the ergonomic spelling for
    // statistics-heavy thousand-seed campaigns.
    let seeds = match (t.get("seeds"), opt_u64(t, "matrix", "seeds_per_cell")?) {
        (Some(_), Some(_)) => {
            return Err("matrix.seeds and matrix.seeds_per_cell are mutually exclusive".into())
        }
        (Some(_), None) => {
            let seeds = req_u64_array(t, "matrix", "seeds")?;
            if seeds.is_empty() {
                return Err("matrix.seeds must be non-empty".into());
            }
            seeds
        }
        (None, Some(n)) => {
            if n == 0 {
                return Err("matrix.seeds_per_cell must be >= 1".into());
            }
            (1..=n).collect()
        }
        (None, None) => return Err("missing required key matrix.seeds".into()),
    };
    Ok(MatrixSpec {
        protocols,
        duties,
        seeds,
    })
}

// ---- Value extraction helpers -------------------------------------------

fn check_keys(obj: &Value, table: &str, allowed: &[&str]) -> Result<(), String> {
    let Value::Object(entries) = obj else {
        return Err(format!("[{table}] is not a table"));
    };
    for (k, _) in entries {
        if !allowed.contains(&k.as_str()) {
            return Err(format!(
                "unknown key {k:?} in [{table}] (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn req_table<'a>(doc: &'a Value, name: &str) -> Result<&'a Value, String> {
    doc.get(name)
        .ok_or_else(|| format!("missing required table [{name}]"))
}

fn req<'a>(t: &'a Value, table: &str, key: &str) -> Result<&'a Value, String> {
    t.get(key)
        .ok_or_else(|| format!("missing required key {table}.{key}"))
}

fn req_str(t: &Value, table: &str, key: &str) -> Result<String, String> {
    req(t, table, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{table}.{key} must be a string"))
}

fn opt_str(t: &Value, table: &str, key: &str) -> Result<Option<String>, String> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("{table}.{key} must be a string")),
    }
}

fn req_u64(t: &Value, table: &str, key: &str) -> Result<u64, String> {
    req(t, table, key)?
        .as_u64()
        .ok_or_else(|| format!("{table}.{key} must be a non-negative integer"))
}

fn opt_u64(t: &Value, table: &str, key: &str) -> Result<Option<u64>, String> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{table}.{key} must be a non-negative integer")),
    }
}

fn req_usize(t: &Value, table: &str, key: &str) -> Result<usize, String> {
    Ok(req_u64(t, table, key)? as usize)
}

fn req_f64(t: &Value, table: &str, key: &str) -> Result<f64, String> {
    req(t, table, key)?
        .as_f64()
        .ok_or_else(|| format!("{table}.{key} must be a number"))
}

fn opt_f64(t: &Value, table: &str, key: &str) -> Result<Option<f64>, String> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("{table}.{key} must be a number")),
    }
}

fn req_pos_f64(t: &Value, table: &str, key: &str) -> Result<f64, String> {
    let v = req_f64(t, table, key)?;
    if !(v > 0.0 && v.is_finite()) {
        return Err(format!("{table}.{key} must be positive"));
    }
    Ok(v)
}

fn req_array<'a>(t: &'a Value, table: &str, key: &str) -> Result<&'a [Value], String> {
    match req(t, table, key)? {
        Value::Array(items) => Ok(items),
        _ => Err(format!("{table}.{key} must be an array")),
    }
}

fn req_f64_array(t: &Value, table: &str, key: &str) -> Result<Vec<f64>, String> {
    req_array(t, table, key)?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("{table}.{key} must contain only numbers"))
        })
        .collect()
}

fn req_u64_array(t: &Value, table: &str, key: &str) -> Result<Vec<u64>, String> {
    req_array(t, table, key)?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("{table}.{key} must contain only non-negative integers"))
        })
        .collect()
}

fn req_str_array(t: &Value, table: &str, key: &str) -> Result<Vec<String>, String> {
    req_array(t, table, key)?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{table}.{key} must contain only strings"))
        })
        .collect()
}

fn prr_in_unit(v: f64, what: &str) -> Result<f64, String> {
    if v > 0.0 && v <= 1.0 {
        Ok(v)
    } else {
        Err(format!("{what} must be a PRR in (0, 1], got {v}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_text() -> &'static str {
        r#"
        [scenario]
        name = "demo"
        description = "grid, k-class links, two concurrent sources"

        [topology]
        kind = "grid"
        rows = 5
        cols = 6
        prr = 0.9

        [links]
        model = "k-class"
        classes = [0.8, 0.6, 0.5]
        weights = [3.0, 2.0, 1.0]
        seed = 11

        [schedule]
        model = "homogeneous"
        period = 20

        [workload]
        kind = "multi-source"
        sources = 2
        packets = 8
        coverage = 0.95
        max_slots = 60000

        [matrix]
        protocols = ["of", "dbao", "opt"]
        duties = [0.05, 0.1]
        seeds = [1, 2]
        "#
    }

    #[test]
    fn parses_full_spec() {
        let spec = ScenarioSpec::from_toml_str(demo_text()).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.topology_seed, 7, "default scenario topology seed");
        assert_eq!(
            spec.topology,
            TopologySpec::Grid {
                rows: 5,
                cols: 6,
                prr: 0.9
            }
        );
        assert!(matches!(&spec.links, LinkModel::KClass { classes, .. } if classes.len() == 3));
        assert_eq!(spec.schedule, ScheduleModel::Homogeneous { period: 20 });
        assert_eq!(spec.workload.kind, WorkloadKind::MultiSource { sources: 2 });
        assert_eq!(spec.workload.packets, 8);
        assert_eq!(spec.n_cells(), 12);
    }

    #[test]
    fn links_table_is_optional() {
        let text = demo_text().replace(
            r#"[links]
        model = "k-class"
        classes = [0.8, 0.6, 0.5]
        weights = [3.0, 2.0, 1.0]
        seed = 11"#,
            "",
        );
        let spec = ScenarioSpec::from_toml_str(&text).unwrap();
        assert_eq!(spec.links, LinkModel::FromTopology);
    }

    #[test]
    fn seeds_per_cell_expands_to_a_seed_range() {
        let text = demo_text().replace("seeds = [1, 2]", "seeds_per_cell = 5");
        let spec = ScenarioSpec::from_toml_str(&text).unwrap();
        assert_eq!(spec.matrix.seeds, vec![1, 2, 3, 4, 5]);
        assert_eq!(spec.n_cells(), 30);

        // The two spellings are mutually exclusive, zero is rejected,
        // and at least one must be present.
        let both = demo_text().replace("seeds = [1, 2]", "seeds = [1]\n        seeds_per_cell = 5");
        assert!(ScenarioSpec::from_toml_str(&both)
            .unwrap_err()
            .contains("mutually exclusive"));
        let zero = demo_text().replace("seeds = [1, 2]", "seeds_per_cell = 0");
        assert!(ScenarioSpec::from_toml_str(&zero)
            .unwrap_err()
            .contains(">= 1"));
        let neither = demo_text().replace("seeds = [1, 2]", "");
        assert!(ScenarioSpec::from_toml_str(&neither)
            .unwrap_err()
            .contains("matrix.seeds"));
    }

    #[test]
    fn seeds_per_cell_spec_quickens_and_digests_like_a_seed_list() {
        let text = demo_text().replace("seeds = [1, 2]", "seeds_per_cell = 100");
        let spec = ScenarioSpec::from_toml_str(&text).unwrap();
        let q = spec.clone().quicken();
        assert_eq!(q.matrix.seeds, vec![1], "quick truncates the expansion");
        let explicit = demo_text().replace(
            "seeds = [1, 2]",
            &format!(
                "seeds = [{}]",
                (1..=100u64)
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        let spec2 = ScenarioSpec::from_toml_str(&explicit).unwrap();
        assert_eq!(spec.matrix, spec2.matrix, "same expanded matrix");
    }

    #[test]
    fn unknown_key_is_rejected() {
        let text = demo_text().replace("period = 20", "period = 20\n        jitter = 3");
        let err = ScenarioSpec::from_toml_str(&text).unwrap_err();
        assert!(err.contains("jitter"), "got: {err}");
    }

    #[test]
    fn validation_failures() {
        for (from, to, why) in [
            ("duties = [0.05, 0.1]", "duties = []", "empty duties"),
            ("duties = [0.05, 0.1]", "duties = [1.5]", "duty > 1"),
            ("sources = 2", "sources = 1", "multi-source needs >= 2"),
            ("packets = 8", "packets = 1", "packets < sources"),
            ("period = 20", "period = 1", "period < 2"),
            ("prr = 0.9", "prr = 0.0", "zero prr"),
            (
                "name = \"demo\"",
                "name = \"Bad Name\"",
                "uppercase/space in name",
            ),
            (
                "weights = [3.0, 2.0, 1.0]",
                "weights = [3.0, 2.0]",
                "weights/classes length mismatch",
            ),
        ] {
            let text = demo_text().replace(from, to);
            assert!(
                ScenarioSpec::from_toml_str(&text).is_err(),
                "should reject: {why}"
            );
        }
    }

    #[test]
    fn schedule_periods_are_bounded_by_the_calendar_cap() {
        let hetero = |periods: &str| {
            demo_text().replace(
                "model = \"homogeneous\"\n        period = 20",
                &format!("model = \"heterogeneous\"\n        periods = {periods}"),
            )
        };
        for (text, field) in [
            // 2^32 + 2 would wrap to a valid-looking 2 in 32 bits.
            (
                demo_text().replace("period = 20", "period = 4294967298"),
                "schedule.period",
            ),
            (
                demo_text().replace("period = 20", "period = 10001"),
                "schedule.period",
            ),
            (hetero("[10, 4294967298]"), "schedule.periods"),
            (hetero("[10, 10001]"), "schedule.periods"),
            // Each period fits; their LCM (10 100) does not.
            (hetero("[100, 101]"), "schedule.periods"),
        ] {
            let err = ScenarioSpec::from_toml_str(&text).unwrap_err();
            assert!(err.contains(field), "{field}: got {err}");
            assert!(err.contains("10000-slot"), "{field}: got {err}");
        }
        // At the cap, and an LCM just under it, still parse.
        let at_cap = demo_text()
            .replace("period = 20", "period = 10000")
            .replace("duties = [0.05, 0.1]", "duties = [0.0001]");
        assert!(ScenarioSpec::from_toml_str(&at_cap).is_ok());
        assert!(ScenarioSpec::from_toml_str(&hetero("[99, 101]")).is_ok());
    }

    #[test]
    fn workload_packets_must_fit_u32() {
        // 2^32 + 8 would wrap to the demo's own 8 in 32 bits.
        let err = ScenarioSpec::from_toml_str(
            &demo_text().replace("packets = 8", "packets = 4294967304"),
        )
        .unwrap_err();
        assert!(err.contains("workload.packets"), "got {err}");
        assert!(err.contains("4294967304"), "got {err}");
        let max = demo_text().replace("packets = 8", "packets = 4294967295");
        assert_eq!(
            ScenarioSpec::from_toml_str(&max).unwrap().workload.packets,
            u32::MAX
        );
    }

    #[test]
    fn all_topology_kinds_parse() {
        for (kind_block, expect_nodes) in [
            ("kind = \"manhattan\"\nrows = 3\ncols = 4\nreach = 2", false),
            (
                "kind = \"random-geometric\"\nnodes = 40\nside = 100.0\nradius = 25.0",
                true,
            ),
            (
                "kind = \"clustered-forest\"\nnodes = 60\nclusters = 6",
                true,
            ),
            ("kind = \"trace\"\ntrace_seed = 42", false),
        ] {
            let text = demo_text().replace(
                "kind = \"grid\"\n        rows = 5\n        cols = 6\n        prr = 0.9",
                kind_block,
            );
            let spec =
                ScenarioSpec::from_toml_str(&text).unwrap_or_else(|e| panic!("{kind_block}: {e}"));
            let _ = expect_nodes;
            assert_eq!(spec.name, "demo");
        }
    }

    #[test]
    fn heterogeneous_schedule_and_periodic_workload() {
        let text = demo_text()
            .replace(
                "model = \"homogeneous\"\n        period = 20",
                "model = \"heterogeneous\"\n        periods = [10, 20, 40]",
            )
            .replace(
                "kind = \"multi-source\"\n        sources = 2",
                "kind = \"periodic\"\n        interval = 9",
            );
        let spec = ScenarioSpec::from_toml_str(&text).unwrap();
        assert_eq!(
            spec.schedule,
            ScheduleModel::Heterogeneous {
                periods: vec![10, 20, 40]
            }
        );
        assert_eq!(spec.workload.kind, WorkloadKind::Periodic { interval: 9 });
    }
}
