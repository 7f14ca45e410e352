//! Versioned simulation snapshots: the [`SimState`] container and the
//! [`Value`] conversions for every simulator layer's captured state.
//!
//! Each layer that owns mutable simulation state exposes a plain-data
//! `snapshot() -> …State` / `restore(…State)` pair in its own crate
//! (`FairShareSolver`, `FlowNetwork` in `fred-sim`;
//! `ScheduleExecutor` in `fred-workloads`; `Cluster` in
//! `fred-cluster`). This module is the serialization hub: it converts
//! those state structs to and from the shared [`Value`] tree and wraps
//! them in a versioned [`SimState`] with named sections, encodable as
//! JSON text or the exact binary form (see [`crate::codec`]).
//!
//! # Bit-exactness
//!
//! The binary form stores every `f64` as raw IEEE-754 bits and is the
//! canonical snapshot format. The JSON form is human-inspectable and
//! exact for every value the simulator actually produces: finite
//! numbers round-trip bit-identically through the shortest-round-trip
//! formatter, and the four JSON-unrepresentable cases are escaped as
//! sentinel strings by [`v_f64`] (`"inf"`, `"-inf"`, `"nan"`, `"-0"`).
//! Integers above 2^53 travel as decimal strings ([`v_u64`]).
//!
//! # Versioning policy
//!
//! [`SIM_STATE_VERSION`] names the *semantic* shape of the section
//! tree; `codec::SNAPSHOT_VERSION` names the binary wire format. Both
//! are checked on load and a mismatch is a typed
//! [`SnapshotError::BadVersion`] — snapshots are not
//! forward/backward compatible across versions, by design (a snapshot
//! is a resume token, not an archive format).

use fred_sim::flow::{FlowId, FlowSpec, Priority};
use fred_sim::netsim::{CompletedFlow, CoreState, FlowState};
use fred_sim::solver::{SolverFlowState, SolverState, SolverStats};
use fred_sim::time::{Duration, Time};
use fred_sim::topology::LinkId;
use std::path::Path;

use crate::codec::{self, SnapshotError, Value};

/// Semantic snapshot-state version (see the module docs for how it
/// relates to the binary codec version).
pub const SIM_STATE_VERSION: u32 = 2;

/// A versioned, named-section snapshot of a whole simulation stack.
///
/// Drivers compose one `SimState` from however many layers they own —
/// e.g. the cluster sweep stores a `"cluster"` section, a bare network
/// a `"net"` section — and encode it
/// with [`SimState::to_binary`] / [`SimState::to_json`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimState {
    sections: Vec<(String, Value)>,
}

impl SimState {
    /// An empty snapshot.
    pub fn new() -> SimState {
        SimState::default()
    }

    /// Adds (or replaces) a named section.
    pub fn insert(&mut self, name: impl Into<String>, v: Value) {
        let name = name.into();
        match self.sections.iter_mut().find(|(k, _)| *k == name) {
            Some((_, slot)) => *slot = v,
            None => self.sections.push((name, v)),
        }
    }

    /// Looks up a section by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.sections
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Like [`SimState::get`] but a missing section is a typed
    /// [`SnapshotError::Mismatch`] — the restore-path idiom.
    pub fn section(&self, name: &str) -> Result<&Value, SnapshotError> {
        self.get(name)
            .ok_or_else(|| SnapshotError::Mismatch(format!("missing section `{name}`")))
    }

    /// All sections in insertion order.
    pub fn sections(&self) -> &[(String, Value)] {
        &self.sections
    }

    /// The snapshot as a [`Value`] tree (magic, version, sections).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("magic".into(), Value::Str("FREDSNAP".into())),
            ("version".into(), v_u64(u64::from(SIM_STATE_VERSION))),
            ("sections".into(), Value::Obj(self.sections.clone())),
        ])
    }

    /// Rebuilds a snapshot from [`SimState::to_value`], checking magic
    /// and version.
    pub fn from_value(v: &Value) -> Result<SimState, SnapshotError> {
        match v.get("magic").and_then(Value::as_str) {
            Some("FREDSNAP") => {}
            _ => return Err(SnapshotError::BadMagic),
        }
        let version = u64_of(field(v, "version", "snapshot")?, "snapshot.version")?;
        if version != u64::from(SIM_STATE_VERSION) {
            return Err(SnapshotError::BadVersion {
                found: version.min(u64::from(u32::MAX)) as u32,
                expected: SIM_STATE_VERSION,
            });
        }
        let Some(Value::Obj(sections)) = v.get("sections") else {
            return Err(SnapshotError::Mismatch("sections is not an object".into()));
        };
        Ok(SimState {
            sections: sections.clone(),
        })
    }

    /// Renders the snapshot as JSON text (exact modulo the [`v_f64`]
    /// sentinel contract).
    pub fn to_json(&self) -> String {
        codec::to_json(&self.to_value())
    }

    /// Parses [`SimState::to_json`] output. Syntax errors surface as
    /// [`SnapshotError::Corrupt`]; wrong magic/version as their typed
    /// variants.
    pub fn from_json(s: &str) -> Result<SimState, SnapshotError> {
        let v = codec::parse(s).map_err(SnapshotError::Corrupt)?;
        SimState::from_value(&v)
    }

    /// Encodes the snapshot in the exact binary form.
    pub fn to_binary(&self) -> Vec<u8> {
        codec::to_binary(&self.to_value())
    }

    /// Decodes [`SimState::to_binary`] output.
    pub fn from_binary(bytes: &[u8]) -> Result<SimState, SnapshotError> {
        SimState::from_value(&codec::from_binary(bytes)?)
    }

    /// Writes the binary form to `path`.
    pub fn write_binary(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_binary()).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    /// Reads a [`SimState::write_binary`] file.
    pub fn read_binary(path: impl AsRef<Path>) -> Result<SimState, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        SimState::from_binary(&bytes)
    }

    /// Writes the JSON form to `path`.
    pub fn write_json(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_json()).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    /// Reads a [`SimState::write_json`] file.
    pub fn read_json(path: impl AsRef<Path>) -> Result<SimState, SnapshotError> {
        let s = std::fs::read_to_string(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        SimState::from_json(&s)
    }
}

// ---------------------------------------------------------------------
// Scalar encoding helpers.
// ---------------------------------------------------------------------

/// Encodes an `f64` for the JSON-safe tree. Finite non-negative-zero
/// values stay numbers (the emitter's shortest-round-trip rendering is
/// bit-exact for them); the four cases JSON/`push_num` would mangle
/// become sentinel strings: `"inf"`, `"-inf"`, `"nan"`, `"-0"`.
pub fn v_f64(x: f64) -> Value {
    if x.is_nan() {
        Value::Str("nan".into())
    } else if x == f64::INFINITY {
        Value::Str("inf".into())
    } else if x == f64::NEG_INFINITY {
        Value::Str("-inf".into())
    } else if x == 0.0 && x.is_sign_negative() {
        Value::Str("-0".into())
    } else {
        Value::Num(x)
    }
}

/// Decodes [`v_f64`].
pub fn f64_of(v: &Value, ctx: &str) -> Result<f64, SnapshotError> {
    match v {
        Value::Num(n) => Ok(*n),
        Value::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            "-0" => Ok(-0.0),
            other => Err(SnapshotError::Mismatch(format!(
                "{ctx}: `{other}` is not a number sentinel"
            ))),
        },
        other => Err(SnapshotError::Mismatch(format!(
            "{ctx}: expected number, found {other:?}"
        ))),
    }
}

/// Encodes a `u64`. Values at or below 2^53 stay numbers (lossless in
/// an `f64`); larger ones travel as decimal strings.
pub fn v_u64(x: u64) -> Value {
    if x <= (1u64 << 53) {
        Value::Num(x as f64)
    } else {
        Value::Str(x.to_string())
    }
}

/// Decodes [`v_u64`].
pub fn u64_of(v: &Value, ctx: &str) -> Result<u64, SnapshotError> {
    match v {
        Value::Num(n) => {
            if n.is_finite() && *n >= 0.0 && n.trunc() == *n && *n <= (1u64 << 53) as f64 {
                Ok(*n as u64)
            } else {
                Err(SnapshotError::Mismatch(format!(
                    "{ctx}: {n} is not a non-negative integer"
                )))
            }
        }
        Value::Str(s) => s
            .parse::<u64>()
            .map_err(|e| SnapshotError::Mismatch(format!("{ctx}: `{s}`: {e}"))),
        other => Err(SnapshotError::Mismatch(format!(
            "{ctx}: expected integer, found {other:?}"
        ))),
    }
}

/// Decodes a `usize` via [`u64_of`].
pub fn usize_of(v: &Value, ctx: &str) -> Result<usize, SnapshotError> {
    usize::try_from(u64_of(v, ctx)?)
        .map_err(|_| SnapshotError::Mismatch(format!("{ctx}: value exceeds usize")))
}

/// Encodes a simulation instant as seconds.
pub fn v_time(t: Time) -> Value {
    v_f64(t.as_secs())
}

/// Decodes [`v_time`], rejecting values [`Time::from_secs`] would
/// panic on (NaN, negative) as typed errors.
pub fn time_of(v: &Value, ctx: &str) -> Result<Time, SnapshotError> {
    let secs = f64_of(v, ctx)?;
    if secs.is_nan() || secs < 0.0 {
        return Err(SnapshotError::Mismatch(format!(
            "{ctx}: {secs} is not a valid instant"
        )));
    }
    Ok(Time::from_secs(secs))
}

fn v_dur(d: Duration) -> Value {
    v_f64(d.as_secs())
}

fn dur_of(v: &Value, ctx: &str) -> Result<Duration, SnapshotError> {
    let secs = f64_of(v, ctx)?;
    if secs.is_nan() || secs < 0.0 {
        return Err(SnapshotError::Mismatch(format!(
            "{ctx}: {secs} is not a valid duration"
        )));
    }
    Ok(Duration::from_secs(secs))
}

/// Field lookup that turns absence into a typed error.
pub fn field<'a>(obj: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, SnapshotError> {
    obj.get(key)
        .ok_or_else(|| SnapshotError::Mismatch(format!("{ctx}: missing field `{key}`")))
}

/// Array access that turns a non-array into a typed error.
pub fn arr_of<'a>(v: &'a Value, ctx: &str) -> Result<&'a [Value], SnapshotError> {
    match v {
        Value::Arr(items) => Ok(items),
        other => Err(SnapshotError::Mismatch(format!(
            "{ctx}: expected array, found {other:?}"
        ))),
    }
}

/// Decodes a JSON boolean with a typed error.
pub fn bool_of(v: &Value, ctx: &str) -> Result<bool, SnapshotError> {
    v.as_bool()
        .ok_or_else(|| SnapshotError::Mismatch(format!("{ctx}: expected bool")))
}

/// Encodes an `f64` slice via [`v_f64`].
pub fn f64s(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().map(|&x| v_f64(x)).collect())
}

/// Decodes [`f64s`].
pub fn f64s_of(v: &Value, ctx: &str) -> Result<Vec<f64>, SnapshotError> {
    arr_of(v, ctx)?.iter().map(|x| f64_of(x, ctx)).collect()
}

/// Encodes a `usize` slice via [`v_u64`].
pub fn usizes(xs: &[usize]) -> Value {
    Value::Arr(xs.iter().map(|&x| v_u64(x as u64)).collect())
}

/// Decodes [`usizes`].
pub fn usizes_of(v: &Value, ctx: &str) -> Result<Vec<usize>, SnapshotError> {
    arr_of(v, ctx)?.iter().map(|x| usize_of(x, ctx)).collect()
}

/// Encodes a `u32` slice via [`v_u64`].
pub fn u32s(xs: &[u32]) -> Value {
    Value::Arr(xs.iter().map(|&x| v_u64(u64::from(x))).collect())
}

/// Decodes [`u32s`].
pub fn u32s_of(v: &Value, ctx: &str) -> Result<Vec<u32>, SnapshotError> {
    arr_of(v, ctx)?
        .iter()
        .map(|x| {
            u64_of(x, ctx).and_then(|n| {
                u32::try_from(n)
                    .map_err(|_| SnapshotError::Mismatch(format!("{ctx}: {n} exceeds u32")))
            })
        })
        .collect()
}

/// Encodes a `bool` slice.
pub fn bools(xs: &[bool]) -> Value {
    Value::Arr(xs.iter().map(|&b| Value::Bool(b)).collect())
}

/// Decodes [`bools`].
pub fn bools_of(v: &Value, ctx: &str) -> Result<Vec<bool>, SnapshotError> {
    arr_of(v, ctx)?.iter().map(|x| bool_of(x, ctx)).collect()
}

// ---------------------------------------------------------------------
// Priority / flow-spec / completion conversions.
// ---------------------------------------------------------------------

/// Encodes a priority as its fill-class rank.
pub fn priority_to_value(p: Priority) -> Value {
    v_u64(p.rank() as u64)
}

/// Decodes [`priority_to_value`].
pub fn priority_from_value(v: &Value, ctx: &str) -> Result<Priority, SnapshotError> {
    let rank = usize_of(v, ctx)?;
    Priority::ALL
        .get(rank)
        .copied()
        .ok_or_else(|| SnapshotError::Mismatch(format!("{ctx}: priority rank {rank} out of range")))
}

/// Encodes a [`FlowSpec`] (used for staged-but-uninjected flows in
/// executor snapshots).
pub fn flow_spec_to_value(s: &FlowSpec) -> Value {
    Value::Obj(vec![
        (
            "route".into(),
            usizes(&s.route.iter().map(|l| l.0).collect::<Vec<usize>>()),
        ),
        ("bytes".into(), v_f64(s.bytes)),
        ("priority".into(), priority_to_value(s.priority)),
        ("tag".into(), v_u64(s.tag)),
        ("tenant".into(), v_u64(u64::from(s.tenant))),
    ])
}

/// Decodes [`flow_spec_to_value`], re-validating the invariants the
/// [`FlowSpec`] constructors assert (finite non-negative bytes, tenant
/// within the class space) as typed errors instead of panics.
pub fn flow_spec_from_value(v: &Value, ctx: &str) -> Result<FlowSpec, SnapshotError> {
    let route = usizes_of(field(v, "route", ctx)?, ctx)?
        .into_iter()
        .map(LinkId)
        .collect();
    let bytes = f64_of(field(v, "bytes", ctx)?, ctx)?;
    if !(bytes.is_finite() && bytes >= 0.0) {
        return Err(SnapshotError::Mismatch(format!(
            "{ctx}: flow bytes {bytes} invalid"
        )));
    }
    let priority = priority_from_value(field(v, "priority", ctx)?, ctx)?;
    let tag = u64_of(field(v, "tag", ctx)?, ctx)?;
    let tenant = u64_of(field(v, "tenant", ctx)?, ctx)?;
    let max_tenant = (u8::MAX as usize / Priority::ALL.len()) as u64 - 1;
    if tenant > max_tenant {
        return Err(SnapshotError::Mismatch(format!(
            "{ctx}: tenant {tenant} outside the class space"
        )));
    }
    Ok(FlowSpec::new(route, bytes)
        .with_priority(priority)
        .with_tag(tag)
        .with_tenant(tenant as u8))
}

fn completed_to_value(c: &CompletedFlow) -> Value {
    Value::Obj(vec![
        ("id".into(), v_u64(c.id.0)),
        ("tag".into(), v_u64(c.tag)),
        ("priority".into(), priority_to_value(c.priority)),
        ("injected_at".into(), v_time(c.injected_at)),
        ("completed_at".into(), v_time(c.completed_at)),
    ])
}

fn completed_from_value(v: &Value, ctx: &str) -> Result<CompletedFlow, SnapshotError> {
    Ok(CompletedFlow {
        id: FlowId(u64_of(field(v, "id", ctx)?, ctx)?),
        tag: u64_of(field(v, "tag", ctx)?, ctx)?,
        priority: priority_from_value(field(v, "priority", ctx)?, ctx)?,
        injected_at: time_of(field(v, "injected_at", ctx)?, ctx)?,
        completed_at: time_of(field(v, "completed_at", ctx)?, ctx)?,
    })
}

// ---------------------------------------------------------------------
// Solver state.
// ---------------------------------------------------------------------

/// Encodes a [`SolverState`].
pub fn solver_state_to_value(s: &SolverState) -> Value {
    let flows = Value::Arr(
        s.flows
            .iter()
            .map(|slot| match slot {
                None => Value::Null,
                Some(f) => Value::Obj(vec![
                    ("links".into(), usizes(&f.links)),
                    ("class".into(), v_u64(u64::from(f.class))),
                    ("rate".into(), v_f64(f.rate)),
                ]),
            })
            .collect(),
    );
    let link_flows = Value::Arr(s.link_flows.iter().map(|ks| u32s(ks)).collect());
    Value::Obj(vec![
        ("capacities".into(), f64s(&s.capacities)),
        ("flows".into(), flows),
        ("free".into(), u32s(&s.free)),
        ("live".into(), v_u64(s.live as u64)),
        ("link_flows".into(), link_flows),
        ("link_alloc".into(), f64s(&s.link_alloc)),
        ("seed_links".into(), usizes(&s.seed_links)),
        ("dirty".into(), Value::Bool(s.dirty)),
        ("refill_fraction".into(), v_f64(s.refill_fraction)),
        ("epoch".into(), v_u64(s.epoch)),
        ("solves".into(), v_u64(s.stats.solves)),
        ("global_solves".into(), v_u64(s.stats.global_solves)),
        ("refilled_flows".into(), v_u64(s.stats.refilled_flows)),
        ("max_component".into(), v_u64(s.stats.max_component)),
    ])
}

/// Decodes [`solver_state_to_value`].
pub fn solver_state_from_value(v: &Value) -> Result<SolverState, SnapshotError> {
    let ctx = "solver";
    let flows = arr_of(field(v, "flows", ctx)?, ctx)?
        .iter()
        .map(|slot| match slot {
            Value::Null => Ok(None),
            f => Ok(Some(SolverFlowState {
                links: usizes_of(field(f, "links", ctx)?, ctx)?,
                class: u64_of(field(f, "class", ctx)?, ctx)? as u8,
                rate: f64_of(field(f, "rate", ctx)?, ctx)?,
            })),
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let link_flows = arr_of(field(v, "link_flows", ctx)?, ctx)?
        .iter()
        .map(|ks| u32s_of(ks, ctx))
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let state = SolverState {
        capacities: f64s_of(field(v, "capacities", ctx)?, ctx)?,
        flows,
        free: u32s_of(field(v, "free", ctx)?, ctx)?,
        live: usize_of(field(v, "live", ctx)?, ctx)?,
        link_flows,
        link_alloc: f64s_of(field(v, "link_alloc", ctx)?, ctx)?,
        seed_links: usizes_of(field(v, "seed_links", ctx)?, ctx)?,
        dirty: bool_of(field(v, "dirty", ctx)?, ctx)?,
        refill_fraction: f64_of(field(v, "refill_fraction", ctx)?, ctx)?,
        epoch: u64_of(field(v, "epoch", ctx)?, ctx)?,
        stats: SolverStats {
            solves: u64_of(field(v, "solves", ctx)?, ctx)?,
            global_solves: u64_of(field(v, "global_solves", ctx)?, ctx)?,
            refilled_flows: u64_of(field(v, "refilled_flows", ctx)?, ctx)?,
            max_component: u64_of(field(v, "max_component", ctx)?, ctx)?,
        },
    };
    check_solver_state(&state)?;
    Ok(state)
}

/// Checks the structural invariants `FairShareSolver::restore` trusts
/// and a later solve indexes by: per-link vectors share one length,
/// every link index is in range, the link→flow lists hold each live key
/// exactly as often as its route crosses the link (and nothing else),
/// and the free stack and live count agree with the slab.
fn check_solver_state(s: &SolverState) -> Result<(), SnapshotError> {
    let bad = |what: String| Err(SnapshotError::Mismatch(format!("solver: {what}")));
    let n = s.capacities.len();
    if s.link_flows.len() != n || s.link_alloc.len() != n {
        return bad(format!(
            "{} capacities but {} link_flows and {} link_alloc",
            n,
            s.link_flows.len(),
            s.link_alloc.len()
        ));
    }
    if let Some(l) = s.seed_links.iter().find(|&&l| l >= n) {
        return bad(format!("seed link {l} out of range ({n} links)"));
    }
    let mut want: Vec<(usize, usize)> = Vec::new();
    for (k, f) in s.flows.iter().enumerate() {
        let Some(f) = f else { continue };
        if let Some(l) = f.links.iter().find(|&&l| l >= n) {
            return bad(format!(
                "flow {k} crosses link {l} out of range ({n} links)"
            ));
        }
        want.extend(f.links.iter().map(|&l| (l, k)));
    }
    let mut got: Vec<(usize, usize)> = s
        .link_flows
        .iter()
        .enumerate()
        .flat_map(|(l, ks)| ks.iter().map(move |&k| (l, k as usize)))
        .collect();
    want.sort_unstable();
    got.sort_unstable();
    if got != want {
        return bad("link_flows do not match the flow routes".into());
    }
    let occupied = s.flows.iter().filter(|f| f.is_some()).count();
    if s.live != occupied {
        return bad(format!("live {} but {occupied} occupied slots", s.live));
    }
    let mut freed = vec![false; s.flows.len()];
    for &k in &s.free {
        match freed.get_mut(k as usize) {
            Some(seen) if !*seen && s.flows[k as usize].is_none() => *seen = true,
            _ => return bad(format!("free key {k} is repeated or names no empty slot")),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Core (single-network) state.
// ---------------------------------------------------------------------

fn flow_state_to_value(f: &FlowState) -> Value {
    Value::Obj(vec![
        ("id".into(), v_u64(f.id)),
        ("links".into(), usizes(&f.links)),
        ("priority".into(), priority_to_value(f.priority)),
        ("tenant".into(), v_u64(u64::from(f.tenant))),
        ("tag".into(), v_u64(f.tag)),
        ("remaining".into(), v_f64(f.remaining)),
        ("rate".into(), v_f64(f.rate)),
        ("updated_at".into(), v_time(f.updated_at)),
        ("generation".into(), v_u64(f.generation)),
        ("injected_at".into(), v_time(f.injected_at)),
        ("latency".into(), v_dur(f.latency)),
    ])
}

fn flow_state_from_value(v: &Value, ctx: &str) -> Result<FlowState, SnapshotError> {
    Ok(FlowState {
        id: u64_of(field(v, "id", ctx)?, ctx)?,
        links: usizes_of(field(v, "links", ctx)?, ctx)?,
        priority: priority_from_value(field(v, "priority", ctx)?, ctx)?,
        tenant: u64_of(field(v, "tenant", ctx)?, ctx)? as u8,
        tag: u64_of(field(v, "tag", ctx)?, ctx)?,
        remaining: f64_of(field(v, "remaining", ctx)?, ctx)?,
        rate: f64_of(field(v, "rate", ctx)?, ctx)?,
        updated_at: time_of(field(v, "updated_at", ctx)?, ctx)?,
        generation: u64_of(field(v, "generation", ctx)?, ctx)?,
        injected_at: time_of(field(v, "injected_at", ctx)?, ctx)?,
        latency: dur_of(field(v, "latency", ctx)?, ctx)?,
    })
}

/// Encodes a [`CoreState`] (the [`fred_sim::netsim::FlowNetwork`]
/// snapshot).
pub fn core_state_to_value(s: &CoreState) -> Value {
    let flows = Value::Arr(
        s.flows
            .iter()
            .map(|slot| match slot {
                None => Value::Null,
                Some(f) => flow_state_to_value(f),
            })
            .collect(),
    );
    let drains = Value::Arr(
        s.drains
            .iter()
            .map(|&(at, id, generation, slot)| {
                Value::Arr(vec![
                    v_time(at),
                    v_u64(id),
                    v_u64(generation),
                    v_u64(u64::from(slot)),
                ])
            })
            .collect(),
    );
    let pending = Value::Arr(
        s.pending
            .iter()
            .map(|(at, seq, flow)| {
                Value::Obj(vec![
                    ("at".into(), v_time(*at)),
                    ("seq".into(), v_u64(*seq)),
                    ("flow".into(), completed_to_value(flow)),
                ])
            })
            .collect(),
    );
    Value::Obj(vec![
        ("now".into(), v_time(s.now)),
        ("next_id".into(), v_u64(s.next_id)),
        ("flows".into(), flows),
        ("active_count".into(), v_u64(s.active_count as u64)),
        ("solver".into(), solver_state_to_value(&s.solver)),
        ("drains".into(), drains),
        ("live_drains".into(), v_u64(s.live_drains as u64)),
        ("compaction_min".into(), v_u64(s.compaction_min as u64)),
        ("compactions".into(), v_u64(s.compactions)),
        ("next_generation".into(), v_u64(s.next_generation)),
        ("pending".into(), pending),
        (
            "completed".into(),
            Value::Arr(s.completed.iter().map(completed_to_value).collect()),
        ),
        ("link_bytes".into(), f64s(&s.link_bytes)),
        ("capacities".into(), f64s(&s.capacities)),
        ("failed".into(), bools(&s.failed)),
        ("events".into(), v_u64(s.events)),
        ("link_alloc".into(), f64s(&s.link_alloc)),
    ])
}

/// Decodes [`core_state_to_value`].
pub fn core_state_from_value(v: &Value) -> Result<CoreState, SnapshotError> {
    let ctx = "core";
    let flows = arr_of(field(v, "flows", ctx)?, ctx)?
        .iter()
        .map(|slot| match slot {
            Value::Null => Ok(None),
            f => flow_state_from_value(f, "core.flow").map(Some),
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let drains = arr_of(field(v, "drains", ctx)?, ctx)?
        .iter()
        .map(|e| {
            let e = arr_of(e, "core.drain")?;
            if e.len() != 4 {
                return Err(SnapshotError::Mismatch(
                    "core.drain: expected 4 elements".into(),
                ));
            }
            let slot = u64_of(&e[3], "core.drain.slot")?;
            Ok((
                time_of(&e[0], "core.drain.at")?,
                u64_of(&e[1], "core.drain.id")?,
                u64_of(&e[2], "core.drain.generation")?,
                u32::try_from(slot).map_err(|_| {
                    SnapshotError::Mismatch(format!("core.drain.slot {slot} exceeds u32"))
                })?,
            ))
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let pending = arr_of(field(v, "pending", ctx)?, ctx)?
        .iter()
        .map(|p| {
            Ok((
                time_of(field(p, "at", "core.pending")?, "core.pending.at")?,
                u64_of(field(p, "seq", "core.pending")?, "core.pending.seq")?,
                completed_from_value(field(p, "flow", "core.pending")?, "core.pending.flow")?,
            ))
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let completed = arr_of(field(v, "completed", ctx)?, ctx)?
        .iter()
        .map(|c| completed_from_value(c, "core.completed"))
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let state = CoreState {
        now: time_of(field(v, "now", ctx)?, ctx)?,
        next_id: u64_of(field(v, "next_id", ctx)?, ctx)?,
        flows,
        active_count: usize_of(field(v, "active_count", ctx)?, ctx)?,
        solver: solver_state_from_value(field(v, "solver", ctx)?)?,
        drains,
        live_drains: usize_of(field(v, "live_drains", ctx)?, ctx)?,
        compaction_min: usize_of(field(v, "compaction_min", ctx)?, ctx)?,
        compactions: u64_of(field(v, "compactions", ctx)?, ctx)?,
        next_generation: u64_of(field(v, "next_generation", ctx)?, ctx)?,
        pending,
        completed,
        link_bytes: f64s_of(field(v, "link_bytes", ctx)?, ctx)?,
        capacities: f64s_of(field(v, "capacities", ctx)?, ctx)?,
        failed: bools_of(field(v, "failed", ctx)?, ctx)?,
        events: u64_of(field(v, "events", ctx)?, ctx)?,
        link_alloc: f64s_of(field(v, "link_alloc", ctx)?, ctx)?,
    };
    check_core_state(&state)?;
    Ok(state)
}

/// Checks that the network's slab and per-link vectors line up with its
/// solver's (the two slabs share keys) and that every drain entry names
/// a slot.
fn check_core_state(s: &CoreState) -> Result<(), SnapshotError> {
    let bad = |what: String| Err(SnapshotError::Mismatch(format!("core: {what}")));
    let n = s.solver.capacities.len();
    for (name, len) in [
        ("capacities", s.capacities.len()),
        ("link_bytes", s.link_bytes.len()),
        ("failed", s.failed.len()),
        ("link_alloc", s.link_alloc.len()),
    ] {
        if len != n {
            return bad(format!("{len} {name} but the solver has {n} links"));
        }
    }
    if s.flows.len() != s.solver.flows.len() {
        return bad(format!(
            "{} flow slots but the solver has {}",
            s.flows.len(),
            s.solver.flows.len()
        ));
    }
    for (k, (f, sf)) in s.flows.iter().zip(&s.solver.flows).enumerate() {
        if f.as_ref().map(|f| &f.links) != sf.as_ref().map(|sf| &sf.links) {
            return bad(format!("slot {k} differs from the solver's"));
        }
    }
    if let Some(&(_, _, _, slot)) = s.drains.iter().find(|d| d.3 as usize >= s.flows.len()) {
        return bad(format!("drain slot {slot} out of range"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_sim::netsim::FlowNetwork;
    use fred_sim::topology::{NodeKind, Topology};

    fn busy_net() -> (Topology, FlowNetwork) {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let l0 = topo.add_link(a, b, 100.0, 1e-6);
        let l1 = topo.add_link(a, b, 80.0, 0.0);
        let mut net = FlowNetwork::new(topo.clone());
        for i in 0..8u64 {
            let l = if i % 2 == 0 { l0 } else { l1 };
            net.inject(
                FlowSpec::new(vec![l], 50.0 + i as f64)
                    .with_tag(i)
                    .with_priority(Priority::ALL[(i % 3) as usize]),
            )
            .unwrap();
        }
        net.advance_to(Time::from_secs(0.4));
        net.fail_link(l1);
        (topo, net)
    }

    #[test]
    fn core_state_round_trips_json_and_binary_exactly() {
        let (_, net) = busy_net();
        let state = net.snapshot();
        let v = core_state_to_value(&state);
        assert_eq!(core_state_from_value(&v).unwrap(), state);

        let mut sim = SimState::new();
        sim.insert("net", v);
        // Binary round-trip.
        let back = SimState::from_binary(&sim.to_binary()).unwrap();
        assert_eq!(back, sim);
        assert_eq!(
            core_state_from_value(back.section("net").unwrap()).unwrap(),
            state
        );
        // JSON round-trip (all simulator-produced values are finite).
        let back = SimState::from_json(&sim.to_json()).unwrap();
        assert_eq!(
            core_state_from_value(back.section("net").unwrap()).unwrap(),
            state
        );
    }

    #[test]
    fn restored_network_from_decoded_state_resumes_identically() {
        let (topo, mut net) = busy_net();
        let state = net.snapshot();
        let bytes = {
            let mut sim = SimState::new();
            sim.insert("net", core_state_to_value(&state));
            sim.to_binary()
        };
        let decoded = SimState::from_binary(&bytes).unwrap();
        let restored = core_state_from_value(decoded.section("net").unwrap()).unwrap();
        let mut resumed = FlowNetwork::restore(topo, restored);
        let a: Vec<(u64, u64)> = net
            .run_to_completion()
            .iter()
            .map(|c| (c.tag, c.completed_at.as_secs().to_bits()))
            .collect();
        let b: Vec<(u64, u64)> = resumed
            .run_to_completion()
            .iter()
            .map(|c| (c.tag, c.completed_at.as_secs().to_bits()))
            .collect();
        assert_eq!(a, b);
    }

    /// Damages a live network's captured state, encodes it and requires
    /// the decoder to reject it with a typed `Mismatch` (the undamaged
    /// state must decode).
    fn assert_rejected(damage: impl FnOnce(&mut CoreState)) {
        let (_, net) = busy_net();
        let mut state = net.snapshot();
        assert!(core_state_from_value(&core_state_to_value(&state)).is_ok());
        damage(&mut state);
        let got = core_state_from_value(&core_state_to_value(&state));
        assert!(matches!(got, Err(SnapshotError::Mismatch(_))), "{got:?}");
    }

    fn first_live(s: &SolverState) -> usize {
        s.flows
            .iter()
            .position(Option::is_some)
            .expect("a live flow")
    }

    #[test]
    fn route_link_out_of_range_is_rejected() {
        assert_rejected(|s| {
            let k = first_live(&s.solver);
            let n = s.solver.capacities.len();
            s.solver.flows[k].as_mut().unwrap().links.push(n);
            s.solver.link_flows[0].push(k as u32);
        });
    }

    #[test]
    fn link_flows_length_mismatch_is_rejected() {
        assert_rejected(|s| s.solver.link_flows.push(Vec::new()));
    }

    #[test]
    fn link_alloc_length_mismatch_is_rejected() {
        assert_rejected(|s| s.solver.link_alloc.push(0.0));
    }

    #[test]
    fn link_flows_naming_a_dead_key_is_rejected() {
        assert_rejected(|s| {
            let dead = s.solver.free[0];
            s.solver.link_flows[0].push(dead);
        });
    }

    #[test]
    fn link_flows_multiplicity_mismatch_is_rejected() {
        // The key's route crosses its first link once, the list names
        // it twice.
        assert_rejected(|s| {
            let k = first_live(&s.solver);
            let l = s.solver.flows[k].as_ref().unwrap().links[0];
            s.solver.link_flows[l].push(k as u32);
        });
    }

    #[test]
    fn free_key_naming_an_occupied_slot_is_rejected() {
        assert_rejected(|s| {
            let k = first_live(&s.solver);
            s.solver.free.push(k as u32);
        });
    }

    #[test]
    fn repeated_free_key_is_rejected() {
        assert_rejected(|s| {
            let k = s.solver.free[0];
            s.solver.free.push(k);
        });
    }

    #[test]
    fn live_count_mismatch_is_rejected() {
        assert_rejected(|s| s.solver.live += 1);
    }

    #[test]
    fn seed_link_out_of_range_is_rejected() {
        assert_rejected(|s| {
            let n = s.solver.capacities.len();
            s.solver.seed_links.push(n);
        });
    }

    #[test]
    fn core_and_solver_slab_length_mismatch_is_rejected() {
        assert_rejected(|s| s.flows.push(None));
    }

    #[test]
    fn core_slot_differing_from_the_solver_is_rejected() {
        assert_rejected(|s| {
            let k = first_live(&s.solver);
            s.flows[k] = None;
        });
    }

    #[test]
    fn core_link_vector_length_mismatch_is_rejected() {
        assert_rejected(|s| s.link_bytes.push(0.0));
    }

    #[test]
    fn drain_slot_out_of_range_is_rejected() {
        assert_rejected(|s| {
            let slots = s.flows.len() as u32;
            s.drains[0].3 = slots;
        });
    }

    #[test]
    fn scalar_sentinels_round_trip_through_json() {
        for x in [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e-300,
            f64::MAX,
        ] {
            let mut sim = SimState::new();
            sim.insert("x", v_f64(x));
            let back = SimState::from_json(&sim.to_json()).unwrap();
            let y = f64_of(back.section("x").unwrap(), "x").unwrap();
            assert_eq!(y.to_bits(), x.to_bits(), "{x}");
        }
        for n in [0u64, 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let mut sim = SimState::new();
            sim.insert("n", v_u64(n));
            let back = SimState::from_json(&sim.to_json()).unwrap();
            assert_eq!(u64_of(back.section("n").unwrap(), "n").unwrap(), n);
        }
    }

    #[test]
    fn wrong_version_and_magic_are_typed_errors() {
        let mut sim = SimState::new();
        sim.insert("s", Value::Num(1.0));
        // Tamper with the semantic version inside the value tree.
        let Value::Obj(mut fields) = sim.to_value() else {
            panic!("not an object")
        };
        fields[1].1 = v_u64(999);
        assert!(matches!(
            SimState::from_value(&Value::Obj(fields.clone())),
            Err(SnapshotError::BadVersion { found: 999, .. })
        ));
        fields[0].1 = Value::Str("NOTASNAP".into());
        assert_eq!(
            SimState::from_value(&Value::Obj(fields)),
            Err(SnapshotError::BadMagic)
        );
        // JSON garbage is Corrupt, not a panic.
        assert!(matches!(
            SimState::from_json("{\"magic\": "),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
