//! Versioned simulation snapshots: the [`SimState`] container and the
//! [`Snap`] trait that writes every captured state as a [`Value`] tree.
//!
//! Each layer that owns mutable simulation state exposes a plain-data
//! `snapshot() -> …State` / `restore(…State)` pair in its own crate
//! (`FairShareSolver`, `FlowNetwork` in `fred-sim`;
//! `ScheduleExecutor` in `fred-workloads`; `Cluster` in
//! `fred-cluster`). A type's snapshot layout is written once, in its
//! [`Snap`] impl: the scalars, the containers and the `fred-sim` states
//! here, `ExecState`, `ClusterState` and the DSE checkpoint row next to
//! their types. The states nest, and [`SimState`] wraps them in a
//! versioned container with named sections, encoded in the binary form
//! of [`crate::codec`].
//!
//! # Layout
//!
//! A struct is an object with one field per struct field, in
//! declaration order; `Vec`, boxed slices, arrays and tuples are
//! arrays; `None` is `null`. The binary form stores every `f64` as raw
//! IEEE-754 bits, so every value — `-0.0`, NaN and the infinities
//! included — round-trips exactly. Integers above 2^53, which an `f64`
//! cannot hold, travel as decimal strings. `Time` and `Duration` are
//! seconds, a `Priority` its rank.
//!
//! # Errors
//!
//! A tree of the wrong shape is a [`SnapshotError::Mismatch`] whose
//! message starts with the jq-style path of the value that failed,
//! e.g. `.net.flows[3].remaining: expected number, found Str("inf")`.
//! The path is built only when a decode fails.
//!
//! # Versioning policy
//!
//! [`SIM_STATE_VERSION`] names the *semantic* shape of the section
//! tree; `codec::SNAPSHOT_VERSION` names the binary wire format. Both
//! are checked on load and a mismatch is a typed
//! [`SnapshotError::BadVersion`] whose message names which of the two
//! disagreed — snapshots are not forward/backward compatible across
//! versions, by design (a snapshot is a resume token, not an archive
//! format).

use std::fmt;
use std::path::Path;

use fred_sim::flow::{FlowId, FlowSpec, Priority, MAX_TENANT};
use fred_sim::netsim::{CompletedFlow, CoreState, FlowState, PendingNotice};
use fred_sim::solver::{SolverFlow, SolverState, SolverStats};
use fred_sim::time::{Duration, Time};
use fred_sim::topology::LinkId;

use crate::codec::{self, SnapshotError, Value};

/// Semantic snapshot-state version (see the module docs for how it
/// relates to the binary codec version).
pub const SIM_STATE_VERSION: u32 = 4;

/// A versioned, named-section snapshot of a whole simulation stack.
///
/// Drivers compose one `SimState` from however many layers they own —
/// e.g. the cluster sweep stores a `"cluster"` section, a bare network
/// a `"net"` section — and encode it with [`SimState::to_binary`].
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
            ("version".into(), SIM_STATE_VERSION.encode()),
            ("sections".into(), Value::Obj(self.sections.clone())),
        ])
    }

    /// Rebuilds a snapshot from [`SimState::to_value`], checking magic
    /// and version.
    pub fn from_value(v: &Value) -> Result<SimState, SnapshotError> {
        SimState::from_tree(v.clone())
    }

    /// [`SimState::from_value`] taking the tree, so its sections move
    /// instead of being copied.
    fn from_tree(v: Value) -> Result<SimState, SnapshotError> {
        match v.get("magic").and_then(Value::as_str) {
            Some("FREDSNAP") => {}
            _ => return Err(SnapshotError::BadMagic),
        }
        let version: u64 = field(&v, "version")?;
        if version != u64::from(SIM_STATE_VERSION) {
            return Err(SnapshotError::BadVersion {
                of: "state layout",
                found: version.min(u64::from(u32::MAX)) as u32,
                expected: SIM_STATE_VERSION,
            });
        }
        let Value::Obj(fields) = v else {
            return Err(SnapshotError::BadMagic);
        };
        match fields.into_iter().find(|(k, _)| k == "sections") {
            Some((_, Value::Obj(sections))) => Ok(SimState { sections }),
            _ => Err(SnapshotError::Mismatch(".sections: expected object".into())),
        }
    }

    /// Encodes the snapshot in the exact binary form.
    pub fn to_binary(&self) -> Vec<u8> {
        codec::to_binary(&self.to_value())
    }

    /// Decodes [`SimState::to_binary`] output.
    pub fn from_binary(bytes: &[u8]) -> Result<SimState, SnapshotError> {
        SimState::from_tree(codec::from_binary(bytes)?)
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
}

/// A type with one snapshot layout (see the module docs).
pub trait Snap: Sized {
    /// The value tree of `self`.
    fn encode(&self) -> Value;

    /// Reads an [`Snap::encode`] tree back. Any other shape is a
    /// [`SnapshotError::Mismatch`] naming the path that failed.
    fn decode(v: &Value) -> Result<Self, SnapshotError>;
}

/// Decodes field `key` of object `obj`. A missing field, a non-object
/// `obj` or a field of the wrong shape is a [`SnapshotError::Mismatch`]
/// naming it.
pub fn field<T: Snap>(obj: &Value, key: &str) -> Result<T, SnapshotError> {
    match obj.get(key) {
        Some(v) => T::decode(v).map_err(|e| under(e, format_args!(".{key}"))),
        None if matches!(obj, Value::Obj(_)) => {
            Err(mismatch(format_args!("missing field `{key}`")))
        }
        None => Err(expected("object", obj)),
    }
}

/// Prefixes the path of a decode failure with the field (`.key`) or
/// index (`[i]`) it happened under.
fn under(err: SnapshotError, seg: fmt::Arguments<'_>) -> SnapshotError {
    match err {
        SnapshotError::Mismatch(m) => {
            // A message that already carries a path starts with it.
            let sep = if m.starts_with(['.', '[']) { "" } else { ": " };
            SnapshotError::Mismatch(format!("{seg}{sep}{m}"))
        }
        other => other,
    }
}

fn mismatch(what: impl fmt::Display) -> SnapshotError {
    SnapshotError::Mismatch(what.to_string())
}

fn expected(what: &str, found: &Value) -> SnapshotError {
    mismatch(format_args!("expected {what}, found {found:?}"))
}

// ---------------------------------------------------------------------
// Scalars.
// ---------------------------------------------------------------------

impl Snap for f64 {
    fn encode(&self) -> Value {
        Value::Num(*self)
    }

    fn decode(v: &Value) -> Result<f64, SnapshotError> {
        v.as_f64().ok_or_else(|| expected("number", v))
    }
}

/// Values at or below 2^53 stay numbers (lossless in an `f64`); larger
/// ones travel as decimal strings.
impl Snap for u64 {
    fn encode(&self) -> Value {
        if *self <= 1 << 53 {
            Value::Num(*self as f64)
        } else {
            Value::Str(self.to_string())
        }
    }

    fn decode(v: &Value) -> Result<u64, SnapshotError> {
        match v {
            &Value::Num(n) if n >= 0.0 && n.trunc() == n && n <= (1u64 << 53) as f64 => {
                Ok(n as u64)
            }
            Value::Num(n) => Err(mismatch(format_args!("{n} is not a non-negative integer"))),
            Value::Str(s) => s
                .parse()
                .map_err(|e| mismatch(format_args!("expected integer, found `{s}` ({e})"))),
            other => Err(expected("integer", other)),
        }
    }
}

/// The narrower integers, encoded as a `u64` and range-checked on
/// decode.
macro_rules! snap_via_u64 {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn encode(&self) -> Value {
                (*self as u64).encode()
            }

            fn decode(v: &Value) -> Result<$t, SnapshotError> {
                let n = u64::decode(v)?;
                <$t>::try_from(n)
                    .map_err(|_| mismatch(format_args!("{n} exceeds {}", stringify!($t))))
            }
        }
    )*};
}

snap_via_u64!(u8, u32, usize);

impl Snap for bool {
    fn encode(&self) -> Value {
        Value::Bool(*self)
    }

    fn decode(v: &Value) -> Result<bool, SnapshotError> {
        v.as_bool().ok_or_else(|| expected("bool", v))
    }
}

impl Snap for String {
    fn encode(&self) -> Value {
        Value::Str(self.clone())
    }

    fn decode(v: &Value) -> Result<String, SnapshotError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| expected("string", v))
    }
}

/// Seconds that [`Time::from_secs`] and [`Duration::from_secs`] accept:
/// finite and non-negative.
fn secs(v: &Value, what: &str) -> Result<f64, SnapshotError> {
    let secs = f64::decode(v)?;
    if secs.is_finite() && secs >= 0.0 {
        Ok(secs)
    } else {
        Err(mismatch(format_args!("{secs} is not a valid {what}")))
    }
}

impl Snap for Time {
    fn encode(&self) -> Value {
        Value::Num(self.as_secs())
    }

    fn decode(v: &Value) -> Result<Time, SnapshotError> {
        secs(v, "instant").map(Time::from_secs)
    }
}

impl Snap for Duration {
    fn encode(&self) -> Value {
        Value::Num(self.as_secs())
    }

    fn decode(v: &Value) -> Result<Duration, SnapshotError> {
        secs(v, "duration").map(Duration::from_secs)
    }
}

impl Snap for Priority {
    fn encode(&self) -> Value {
        self.rank().encode()
    }

    fn decode(v: &Value) -> Result<Priority, SnapshotError> {
        let rank = usize::decode(v)?;
        Priority::ALL
            .get(rank)
            .copied()
            .ok_or_else(|| mismatch(format_args!("priority rank {rank} out of range")))
    }
}

impl Snap for FlowId {
    fn encode(&self) -> Value {
        self.0.encode()
    }

    fn decode(v: &Value) -> Result<FlowId, SnapshotError> {
        u64::decode(v).map(FlowId)
    }
}

impl Snap for LinkId {
    fn encode(&self) -> Value {
        self.0.encode()
    }

    fn decode(v: &Value) -> Result<LinkId, SnapshotError> {
        usize::decode(v).map(LinkId)
    }
}

// ---------------------------------------------------------------------
// Containers.
// ---------------------------------------------------------------------

impl<T: Snap> Snap for Option<T> {
    fn encode(&self) -> Value {
        self.as_ref().map_or(Value::Null, Snap::encode)
    }

    fn decode(v: &Value) -> Result<Option<T>, SnapshotError> {
        match v {
            Value::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
    }
}

fn encode_all<T: Snap>(xs: &[T]) -> Value {
    Value::Arr(xs.iter().map(Snap::encode).collect())
}

fn items(v: &Value) -> Result<&[Value], SnapshotError> {
    match v {
        Value::Arr(xs) => Ok(xs),
        other => Err(expected("array", other)),
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn encode(&self) -> Value {
        encode_all(self)
    }

    fn decode(v: &Value) -> Result<Vec<T>, SnapshotError> {
        let xs = items(v)?;
        let mut out = Vec::with_capacity(xs.len());
        for (i, x) in xs.iter().enumerate() {
            out.push(T::decode(x).map_err(|e| under(e, format_args!("[{i}]")))?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for Box<[T]> {
    fn encode(&self) -> Value {
        encode_all(self)
    }

    fn decode(v: &Value) -> Result<Box<[T]>, SnapshotError> {
        Vec::decode(v).map(Vec::into_boxed_slice)
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn encode(&self) -> Value {
        encode_all(self)
    }

    fn decode(v: &Value) -> Result<[T; N], SnapshotError> {
        Vec::decode(v)?.try_into().map_err(|xs: Vec<T>| {
            mismatch(format_args!("expected {N} elements, found {}", xs.len()))
        })
    }
}

/// Tuples, as arrays of their fields.
macro_rules! snap_tuple {
    ($n:literal: $($t:ident $x:ident $i:tt),+) => {
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            fn encode(&self) -> Value {
                Value::Arr(vec![$(self.$i.encode()),+])
            }

            fn decode(v: &Value) -> Result<Self, SnapshotError> {
                match items(v)? {
                    [$($x),+] => Ok(($(
                        $t::decode($x).map_err(|e| under(e, format_args!("[{}]", $i)))?,
                    )+)),
                    xs => Err(mismatch(format_args!("expected {} elements, found {}", $n, xs.len()))),
                }
            }
        }
    };
}

snap_tuple!(3: A a 0, B b 1, C c 2);
snap_tuple!(4: A a 0, B b 1, C c 2, D d 3);

// ---------------------------------------------------------------------
// Flow specs and completions.
// ---------------------------------------------------------------------

/// Field `tenant` of `obj`, rejecting ranks past [`MAX_TENANT`] (their
/// fill classes would overflow the allocator's `u8` class space).
fn tenant(obj: &Value) -> Result<u8, SnapshotError> {
    let tenant: u8 = field(obj, "tenant")?;
    if tenant > MAX_TENANT {
        return Err(mismatch(format_args!(
            ".tenant: tenant {tenant} outside the class space"
        )));
    }
    Ok(tenant)
}

/// Staged-but-uninjected flows in executor snapshots. Decoding
/// re-validates what the [`FlowSpec`] constructors assert (finite
/// non-negative bytes, tenant within the class space) as typed errors.
impl Snap for FlowSpec {
    fn encode(&self) -> Value {
        Value::Obj(vec![
            ("route".into(), self.route.encode()),
            ("bytes".into(), self.bytes.encode()),
            ("priority".into(), self.priority.encode()),
            ("tag".into(), self.tag.encode()),
            ("tenant".into(), self.tenant.encode()),
        ])
    }

    fn decode(v: &Value) -> Result<FlowSpec, SnapshotError> {
        let bytes: f64 = field(v, "bytes")?;
        if !(bytes.is_finite() && bytes >= 0.0) {
            return Err(mismatch(format_args!(".bytes: flow bytes {bytes} invalid")));
        }
        Ok(FlowSpec::new(field(v, "route")?, bytes)
            .with_priority(field(v, "priority")?)
            .with_tag(field(v, "tag")?)
            .with_tenant(tenant(v)?))
    }
}

impl Snap for CompletedFlow {
    fn encode(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), self.id.encode()),
            ("tag".into(), self.tag.encode()),
            ("priority".into(), self.priority.encode()),
            ("injected_at".into(), self.injected_at.encode()),
            ("completed_at".into(), self.completed_at.encode()),
        ])
    }

    fn decode(v: &Value) -> Result<CompletedFlow, SnapshotError> {
        Ok(CompletedFlow {
            id: field(v, "id")?,
            tag: field(v, "tag")?,
            priority: field(v, "priority")?,
            injected_at: field(v, "injected_at")?,
            completed_at: field(v, "completed_at")?,
        })
    }
}

// ---------------------------------------------------------------------
// Solver state.
// ---------------------------------------------------------------------

impl Snap for SolverFlow {
    fn encode(&self) -> Value {
        Value::Obj(vec![
            ("links".into(), self.links.encode()),
            ("class".into(), self.class.encode()),
            ("rate".into(), self.rate.encode()),
        ])
    }

    fn decode(v: &Value) -> Result<SolverFlow, SnapshotError> {
        Ok(SolverFlow {
            links: field(v, "links")?,
            class: field(v, "class")?,
            rate: field(v, "rate")?,
        })
    }
}

impl Snap for SolverState {
    fn encode(&self) -> Value {
        Value::Obj(vec![
            ("capacities".into(), self.capacities.encode()),
            ("flows".into(), self.flows.encode()),
            ("free".into(), self.free.encode()),
            ("live".into(), self.live.encode()),
            ("link_flows".into(), self.link_flows.encode()),
            ("link_alloc".into(), self.link_alloc.encode()),
            ("seed_links".into(), self.seed_links.encode()),
            ("dirty".into(), self.dirty.encode()),
            ("epoch".into(), self.epoch.encode()),
            ("solves".into(), self.stats.solves.encode()),
            ("global_solves".into(), self.stats.global_solves.encode()),
            ("refilled_flows".into(), self.stats.refilled_flows.encode()),
            ("max_component".into(), self.stats.max_component.encode()),
        ])
    }

    fn decode(v: &Value) -> Result<SolverState, SnapshotError> {
        let state = SolverState {
            capacities: field(v, "capacities")?,
            flows: field(v, "flows")?,
            free: field(v, "free")?,
            live: field(v, "live")?,
            link_flows: field(v, "link_flows")?,
            link_alloc: field(v, "link_alloc")?,
            seed_links: field(v, "seed_links")?,
            dirty: field(v, "dirty")?,
            epoch: field(v, "epoch")?,
            stats: SolverStats {
                solves: field(v, "solves")?,
                global_solves: field(v, "global_solves")?,
                refilled_flows: field(v, "refilled_flows")?,
                max_component: field(v, "max_component")?,
            },
        };
        check_solver_state(&state).map_err(mismatch)?;
        Ok(state)
    }
}

/// Checks the structural invariants `FairShareSolver::restore` trusts
/// and a later solve indexes by: per-link vectors share one length,
/// every link index is in range, the link→flow lists hold each live key
/// exactly as often as its route crosses the link (and nothing else),
/// and the free stack and live count agree with the slab.
fn check_solver_state(s: &SolverState) -> Result<(), String> {
    let n = s.capacities.len();
    if s.link_flows.len() != n || s.link_alloc.len() != n {
        return Err(format!(
            "{} capacities but {} link_flows and {} link_alloc",
            n,
            s.link_flows.len(),
            s.link_alloc.len()
        ));
    }
    if let Some(l) = s.seed_links.iter().find(|&&l| l >= n) {
        return Err(format!("seed link {l} out of range ({n} links)"));
    }
    let mut want: Vec<(usize, usize)> = Vec::new();
    for (k, f) in s.flows.iter().enumerate() {
        let Some(f) = f else { continue };
        if let Some(l) = f.links.iter().find(|&&l| l >= n) {
            return Err(format!(
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
        return Err("link_flows do not match the flow routes".into());
    }
    let occupied = s.flows.iter().filter(|f| f.is_some()).count();
    if s.live != occupied {
        return Err(format!("live {} but {occupied} occupied slots", s.live));
    }
    let mut freed = vec![false; s.flows.len()];
    for &k in &s.free {
        match freed.get_mut(k as usize) {
            Some(seen) if !*seen && s.flows[k as usize].is_none() => *seen = true,
            _ => return Err(format!("free key {k} is repeated or names no empty slot")),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Network state.
// ---------------------------------------------------------------------

impl Snap for FlowState {
    fn encode(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), self.id.encode()),
            ("priority".into(), self.priority.encode()),
            ("tenant".into(), self.tenant.encode()),
            ("tag".into(), self.tag.encode()),
            ("remaining".into(), self.remaining.encode()),
            ("updated_at".into(), self.updated_at.encode()),
            ("generation".into(), self.generation.encode()),
            ("injected_at".into(), self.injected_at.encode()),
            ("latency".into(), self.latency.encode()),
        ])
    }

    fn decode(v: &Value) -> Result<FlowState, SnapshotError> {
        Ok(FlowState {
            id: field(v, "id")?,
            priority: field(v, "priority")?,
            tenant: tenant(v)?,
            tag: field(v, "tag")?,
            remaining: field(v, "remaining")?,
            updated_at: field(v, "updated_at")?,
            generation: field(v, "generation")?,
            injected_at: field(v, "injected_at")?,
            latency: field(v, "latency")?,
        })
    }
}

impl Snap for PendingNotice {
    fn encode(&self) -> Value {
        Value::Obj(vec![
            ("at".into(), self.at.encode()),
            ("seq".into(), self.seq.encode()),
            ("flow".into(), self.flow.encode()),
        ])
    }

    fn decode(v: &Value) -> Result<PendingNotice, SnapshotError> {
        Ok(PendingNotice {
            at: field(v, "at")?,
            seq: field(v, "seq")?,
            flow: field(v, "flow")?,
        })
    }
}

/// The [`fred_sim::netsim::FlowNetwork`] snapshot.
impl Snap for CoreState {
    fn encode(&self) -> Value {
        Value::Obj(vec![
            ("now".into(), self.now.encode()),
            ("next_id".into(), self.next_id.encode()),
            ("flows".into(), self.flows.encode()),
            ("solver".into(), self.solver.encode()),
            ("drains".into(), self.drains.encode()),
            ("live_drains".into(), self.live_drains.encode()),
            ("compactions".into(), self.compactions.encode()),
            ("next_generation".into(), self.next_generation.encode()),
            ("pending".into(), self.pending.encode()),
            ("completed".into(), self.completed.encode()),
            ("failed".into(), self.failed.encode()),
            ("events".into(), self.events.encode()),
            ("link_alloc".into(), self.link_alloc.encode()),
        ])
    }

    fn decode(v: &Value) -> Result<CoreState, SnapshotError> {
        let state = CoreState {
            now: field(v, "now")?,
            next_id: field(v, "next_id")?,
            flows: field(v, "flows")?,
            solver: field(v, "solver")?,
            drains: field(v, "drains")?,
            live_drains: field(v, "live_drains")?,
            compactions: field(v, "compactions")?,
            next_generation: field(v, "next_generation")?,
            pending: field(v, "pending")?,
            completed: field(v, "completed")?,
            failed: field(v, "failed")?,
            events: field(v, "events")?,
            link_alloc: field(v, "link_alloc")?,
        };
        check_core_state(&state).map_err(mismatch)?;
        Ok(state)
    }
}

/// Checks that the network's per-link vectors have the solver's link
/// count, that its slab occupies exactly the solver's slots (the two
/// slabs share keys) and that every drain entry names a slot.
fn check_core_state(s: &CoreState) -> Result<(), String> {
    let n = s.solver.capacities.len();
    for (name, len) in [
        ("failed", s.failed.len()),
        ("link_alloc", s.link_alloc.len()),
    ] {
        if len != n {
            return Err(format!("{len} {name} but the solver has {n} links"));
        }
    }
    if s.flows.len() != s.solver.flows.len() {
        return Err(format!(
            "{} flow slots but the solver has {}",
            s.flows.len(),
            s.solver.flows.len()
        ));
    }
    for (k, (f, sf)) in s.flows.iter().zip(&s.solver.flows).enumerate() {
        if f.is_some() != sf.is_some() {
            return Err(format!("slot {k} is occupied in only one of the two slabs"));
        }
    }
    if let Some(&(_, _, _, slot)) = s.drains.iter().find(|d| d.3 as usize >= s.flows.len()) {
        return Err(format!("drain slot {slot} out of range"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_sim::netsim::FlowNetwork;
    use fred_sim::topology::{NodeKind, Topology};
    use fred_telemetry::sink::NullSink;
    use std::rc::Rc;

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
    fn core_state_round_trips_binary_exactly() {
        let (_, net) = busy_net();
        let state = net.snapshot();
        let v = state.encode();
        assert_eq!(CoreState::decode(&v).unwrap(), state);

        let mut sim = SimState::new();
        sim.insert("net", v);
        let back = SimState::from_binary(&sim.to_binary()).unwrap();
        assert_eq!(back, sim);
        assert_eq!(
            CoreState::decode(back.section("net").unwrap()).unwrap(),
            state
        );
    }

    #[test]
    fn restored_network_from_decoded_state_resumes_identically() {
        let (topo, mut net) = busy_net();
        let state = net.snapshot();
        let bytes = {
            let mut sim = SimState::new();
            sim.insert("net", state.encode());
            sim.to_binary()
        };
        let decoded = SimState::from_binary(&bytes).unwrap();
        let restored = CoreState::decode(decoded.section("net").unwrap()).unwrap();
        let mut resumed = FlowNetwork::restore(topo, Rc::new(NullSink), restored).unwrap();
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
        assert!(CoreState::decode(&state.encode()).is_ok());
        damage(&mut state);
        let got = CoreState::decode(&state.encode());
        assert!(matches!(got, Err(SnapshotError::Mismatch(_))), "{got:?}");
    }

    fn first_live(s: &SolverState) -> usize {
        s.flows
            .iter()
            .position(Option::is_some)
            .expect("a live flow")
    }

    /// As [`assert_rejected`], but damages the encoded value tree, for
    /// values the typed state cannot hold. `damage` also gets the first
    /// live flow slot.
    fn assert_value_rejected(damage: impl FnOnce(&mut Value, usize)) {
        let (_, net) = busy_net();
        let state = net.snapshot();
        let mut v = state.encode();
        damage(&mut v, first_live(&state.solver));
        let got = CoreState::decode(&v);
        assert!(matches!(got, Err(SnapshotError::Mismatch(_))), "{got:?}");
    }

    fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        let Value::Obj(fields) = v else {
            panic!("not an object")
        };
        &mut fields.iter_mut().find(|(k, _)| k == key).expect("field").1
    }

    fn item_mut(v: &mut Value, i: usize) -> &mut Value {
        let Value::Arr(items) = v else {
            panic!("not an array")
        };
        &mut items[i]
    }

    #[test]
    fn flow_tenant_outside_the_class_space_is_rejected() {
        // 51 is one past the largest tenant whose classes fit a u8; 300
        // does not fit a u8 at all.
        for tenant in [51u64, 300] {
            assert_value_rejected(|v, k| {
                *field_mut(item_mut(field_mut(v, "flows"), k), "tenant") = tenant.encode();
            });
        }
    }

    #[test]
    fn solver_class_above_u8_is_rejected() {
        assert_value_rejected(|v, k| {
            let flows = field_mut(field_mut(v, "solver"), "flows");
            *field_mut(item_mut(flows, k), "class") = 256u64.encode();
        });
    }

    #[test]
    fn route_link_out_of_range_is_rejected() {
        assert_rejected(|s| {
            let k = first_live(&s.solver);
            let n = s.solver.capacities.len();
            let f = s.solver.flows[k].as_mut().unwrap();
            f.links = f.links.iter().copied().chain([n]).collect();
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
        assert_rejected(|s| s.failed.push(false));
        assert_rejected(|s| s.link_alloc.push(0.0));
    }

    #[test]
    fn drain_slot_out_of_range_is_rejected() {
        assert_rejected(|s| {
            let slots = s.flows.len() as u32;
            s.drains[0].3 = slots;
        });
    }

    #[test]
    fn string_in_a_number_field_is_rejected() {
        // The former JSON sentinel for infinity is no number.
        assert_value_rejected(|v, k| {
            *field_mut(item_mut(field_mut(v, "flows"), k), "remaining") = Value::Str("inf".into());
        });
        assert_value_rejected(|v, _| *field_mut(v, "now") = Value::Str("-0".into()));
    }

    #[test]
    fn scalars_round_trip_exactly_through_binary() {
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
            sim.insert("x", x.encode());
            let back = SimState::from_binary(&sim.to_binary()).unwrap();
            let y = f64::decode(back.section("x").unwrap()).unwrap();
            assert_eq!(y.to_bits(), x.to_bits(), "{x}");
        }
        for n in [0u64, 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let mut sim = SimState::new();
            sim.insert("n", n.encode());
            let back = SimState::from_binary(&sim.to_binary()).unwrap();
            assert_eq!(u64::decode(back.section("n").unwrap()).unwrap(), n);
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
        fields[1].1 = 999u64.encode();
        assert!(matches!(
            SimState::from_value(&Value::Obj(fields.clone())),
            Err(SnapshotError::BadVersion { found: 999, .. })
        ));
        fields[0].1 = Value::Str("NOTASNAP".into());
        assert_eq!(
            SimState::from_value(&Value::Obj(fields)),
            Err(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn older_state_layout_is_rejected_naming_the_layout() {
        // A version-3 file: the codec header is current, the state
        // layout inside it is not.
        let mut sim = SimState::new();
        sim.insert("net", busy_net().1.snapshot().encode());
        let Value::Obj(mut fields) = sim.to_value() else {
            panic!("not an object")
        };
        fields[1].1 = 3u64.encode();
        let err = SimState::from_binary(&codec::to_binary(&Value::Obj(fields))).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::BadVersion {
                of: "state layout",
                found: 3,
                expected: SIM_STATE_VERSION,
            }
        );
        assert_eq!(
            err.to_string(),
            format!("snapshot state layout version 3 (this build reads {SIM_STATE_VERSION})")
        );
    }
}
