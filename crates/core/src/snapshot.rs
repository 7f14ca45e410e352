//! Versioned simulation snapshots: the [`SimState`] container and the
//! [`Snap`] trait that writes every captured state as a [`Value`] tree.
//!
//! Each layer that owns mutable simulation state exposes a plain-data
//! `snapshot() -> …State` / `restore(…State)` pair in its own crate
//! (`FlowNetwork` in `fred-sim`, whose state nests its solver's;
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
//! Decoding checks shapes only: each value has its field's type and
//! fits it (an integer its width, an instant or duration is finite and
//! non-negative, a priority rank names a class). A tree of the wrong
//! shape is a [`SnapshotError::Mismatch`] whose message starts with the
//! jq-style path of the value that failed, e.g.
//! `.net.flows[3].remaining: expected number, found Str("inf")`. The
//! path is built only when a decode fails. How a field relates to
//! another field, to the topology or to the config is a rule, and the
//! layer that restores the state checks it (for the network,
//! [`FlowNetwork::restore`](fred_sim::netsim::FlowNetwork::restore)).
//! A state never holds what its layer can derive on restore: an
//! executor's capture, for one, has no staged flows or ready tasks,
//! because captures are taken between event instants, and a network's
//! has no drain heap, because each flow's settled bytes and rate give
//! its entry.
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

use fred_sim::flow::{FlowId, Priority};
use fred_sim::netsim::{CompletedFlow, CoreState, FlowState};
use fred_sim::solver::{SolverFlow, SolverState, SolverStats};
use fred_sim::time::{Duration, Time};

use crate::codec::{self, SnapshotError, Value};

/// Semantic snapshot-state version (see the module docs for how it
/// relates to the binary codec version).
pub const SIM_STATE_VERSION: u32 = 8;

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

snap_tuple!(2: A a 0, B b 1);
snap_tuple!(3: A a 0, B b 1, C c 2);

// ---------------------------------------------------------------------
// Completions.
// ---------------------------------------------------------------------

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
            ("link_alloc".into(), self.link_alloc.encode()),
            ("seed_links".into(), self.seed_links.encode()),
            ("dirty".into(), self.dirty.encode()),
            ("solves".into(), self.stats.solves.encode()),
            ("global_solves".into(), self.stats.global_solves.encode()),
            ("refilled_flows".into(), self.stats.refilled_flows.encode()),
            ("max_component".into(), self.stats.max_component.encode()),
        ])
    }

    fn decode(v: &Value) -> Result<SolverState, SnapshotError> {
        Ok(SolverState {
            capacities: field(v, "capacities")?,
            flows: field(v, "flows")?,
            free: field(v, "free")?,
            link_alloc: field(v, "link_alloc")?,
            seed_links: field(v, "seed_links")?,
            dirty: field(v, "dirty")?,
            stats: SolverStats {
                solves: field(v, "solves")?,
                global_solves: field(v, "global_solves")?,
                refilled_flows: field(v, "refilled_flows")?,
                max_component: field(v, "max_component")?,
            },
        })
    }
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
            tenant: field(v, "tenant")?,
            tag: field(v, "tag")?,
            remaining: field(v, "remaining")?,
            updated_at: field(v, "updated_at")?,
            generation: field(v, "generation")?,
            injected_at: field(v, "injected_at")?,
            latency: field(v, "latency")?,
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
            ("next_generation".into(), self.next_generation.encode()),
            ("pending".into(), self.pending.encode()),
            ("completed".into(), self.completed.encode()),
            ("failed".into(), self.failed.encode()),
            ("events".into(), self.events.encode()),
        ])
    }

    fn decode(v: &Value) -> Result<CoreState, SnapshotError> {
        Ok(CoreState {
            now: field(v, "now")?,
            next_id: field(v, "next_id")?,
            flows: field(v, "flows")?,
            solver: field(v, "solver")?,
            next_generation: field(v, "next_generation")?,
            pending: field(v, "pending")?,
            completed: field(v, "completed")?,
            failed: field(v, "failed")?,
            events: field(v, "events")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_sim::flow::{FlowSpec, MAX_TENANT};
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

    fn first_live(s: &SolverState) -> usize {
        s.flows
            .iter()
            .position(Option::is_some)
            .expect("a live flow")
    }

    /// The first slot whose flow drains at a positive rate.
    fn first_rated(s: &SolverState) -> usize {
        s.flows
            .iter()
            .position(|f| f.as_ref().is_some_and(|f| f.rate > 0.0))
            .expect("a rated flow")
    }

    /// Damages the encoded value tree of a live network's captured
    /// state, for values the typed state cannot hold, and requires the
    /// decoder to reject it with a typed `Mismatch`. `damage` also gets
    /// the first live flow slot.
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
    fn integers_that_do_not_fit_their_type_are_rejected() {
        assert_value_rejected(|v, k| {
            *field_mut(item_mut(field_mut(v, "flows"), k), "tenant") = 300u64.encode();
        });
        assert_value_rejected(|v, k| {
            let flows = field_mut(field_mut(v, "solver"), "flows");
            *field_mut(item_mut(flows, k), "class") = 256u64.encode();
        });
    }

    #[test]
    fn restore_names_the_field_of_each_broken_rule() {
        // Each edit decodes, since decoding checks shapes only, and
        // restore must reject it naming the field, never panic.
        type Edit = fn(&mut CoreState);
        fn bytes_left(s: &mut CoreState, bytes: f64) {
            let k = first_rated(&s.solver);
            s.flows[k].as_mut().unwrap().remaining = bytes;
        }
        let edits: [(&str, Edit); 16] = [
            ("solver.link_alloc", |s| s.solver.link_alloc.push(0.0)),
            ("failed", |s| s.failed.push(false)),
            ("solver.seed_links", |s| {
                s.solver.seed_links.push(s.solver.capacities.len())
            }),
            // The network slab one slot longer than the solver's.
            ("solver.flows", |s| s.flows.push(None)),
            ("solver.flows", |s| {
                let k = first_live(&s.solver);
                let n = s.solver.capacities.len();
                let f = s.solver.flows[k].as_mut().unwrap();
                f.links = f.links.iter().copied().chain([n]).collect();
            }),
            // A slot occupied only in the solver.
            ("flows", |s| {
                let k = first_live(&s.solver);
                s.flows[k] = None;
            }),
            ("solver.free", |s| {
                let k = first_live(&s.solver);
                s.solver.free.push(k as u32);
            }),
            ("solver.free", |s| {
                let k = s.solver.free[0];
                s.solver.free.push(k);
            }),
            ("flows", |s| bytes_left(s, f64::INFINITY)),
            ("flows", |s| bytes_left(s, f64::NAN)),
            ("flows", |s| bytes_left(s, -5.0)),
            // A rate so small the flow's bytes never drain.
            ("solver.flows", |s| {
                let k = first_rated(&s.solver);
                s.solver.flows[k].as_mut().unwrap().rate = 1e-308;
            }),
            // A rated flow with a new flow's generation, and one with a
            // generation not yet assigned.
            ("flows", |s| {
                let k = first_rated(&s.solver);
                s.flows[k].as_mut().unwrap().generation = 0;
            }),
            ("flows", |s| {
                let k = first_live(&s.solver);
                s.flows[k].as_mut().unwrap().generation = s.next_generation + 1;
            }),
            ("solver.flows", |s| {
                let k = first_live(&s.solver);
                s.flows[k].as_mut().unwrap().tenant = MAX_TENANT + 1;
            }),
            // A class that disagrees with the flow's tenant and priority.
            ("solver.flows", |s| {
                let k = first_live(&s.solver);
                s.solver.flows[k].as_mut().unwrap().class += 1;
            }),
        ];
        for (field, edit) in edits {
            let (topo, net) = busy_net();
            let mut state = net.snapshot();
            edit(&mut state);
            // Compared as binary images, which hold a NaN's exact bits.
            let image = |s: &CoreState| codec::to_binary(&s.encode());
            let decoded = CoreState::decode(&state.encode()).map(|d| image(&d));
            assert_eq!(decoded, Ok(image(&state)), "edit of {field} must decode");
            match FlowNetwork::restore(topo, Rc::new(NullSink), state) {
                Err(e) => assert_eq!(e.field, field, "{e}"),
                Ok(_) => panic!("edit of {field} restored"),
            }
        }
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
