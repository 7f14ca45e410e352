//! The simulator's one time-ordered queue. The network's drain
//! predictions and tail notices wait in an [`InstantQueue`], and so do
//! the schedule executor's compute finishes in `fred-workloads`. Ties
//! at one instant break in push order, without sequence numbers, so a
//! queue's items in take order are all its state.

use std::collections::BTreeMap;

use crate::time::Time;

/// Items queued by the instant they fall due, one bucket per distinct
/// instant, each bucket in push order; no bucket is ever empty. Pushes
/// group runs of equal instants, so a batch of items due together
/// touches the map once; a bucket emptied by a take or a discard keeps
/// its allocation for a later instant.
///
/// ```
/// use fred_sim::events::InstantQueue;
/// use fred_sim::time::Time;
///
/// let mut q = InstantQueue::default();
/// q.push(Time::from_secs(2.0), "late");
/// q.push(Time::from_secs(1.0), "early");
/// q.push(Time::from_secs(1.0), "early-second");
/// assert_eq!(q.first_instant(), Some(Time::from_secs(1.0)));
/// let due = q.take_due(Time::from_secs(1.0)).unwrap();
/// assert_eq!(due, ["early", "early-second"]);
/// q.recycle(due);
/// assert_eq!(q.take_due(Time::from_secs(1.5)), None);
/// assert_eq!(q.take_due(Time::from_secs(2.0)).unwrap(), ["late"]);
/// ```
#[derive(Debug)]
pub struct InstantQueue<T> {
    buckets: BTreeMap<Time, Vec<T>>,
    /// Emptied buckets, cleared, for the next new instant.
    spare: Vec<Vec<T>>,
    /// Items in all buckets.
    len: usize,
}

impl<T> Default for InstantQueue<T> {
    fn default() -> InstantQueue<T> {
        InstantQueue {
            buckets: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
        }
    }
}

impl<T> InstantQueue<T> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queues `item` at `at`, after every item already due then.
    pub fn push(&mut self, at: Time, item: T) {
        self.extend([(at, item)]);
    }

    /// Pushes each item at its instant, in order, looking a bucket up
    /// once per run of equal instants. Pushing a queue's
    /// [`InstantQueue::iter`] into an empty one rebuilds it.
    pub fn extend(&mut self, items: impl IntoIterator<Item = (Time, T)>) {
        let mut run: Option<(Time, &mut Vec<T>)> = None;
        for (at, item) in items {
            self.len += 1;
            match &mut run {
                Some((t, bucket)) if (*t).cmp(&at).is_eq() => bucket.push(item),
                _ => {
                    let spare = &mut self.spare;
                    let bucket = self
                        .buckets
                        .entry(at)
                        .or_insert_with(|| spare.pop().unwrap_or_default());
                    bucket.push(item);
                    run = Some((at, bucket));
                }
            }
        }
    }

    /// The earliest instant holding an item.
    pub fn first_instant(&self) -> Option<Time> {
        self.buckets.first_key_value().map(|(&at, _)| at)
    }

    /// The earliest instant holding an item `live` accepts. Rejected
    /// items are discarded from the end of the earliest bucket until
    /// its last item is accepted or the bucket is empty.
    pub(crate) fn first_live(&mut self, mut live: impl FnMut(&T) -> bool) -> Option<Time> {
        while let Some(mut first) = self.buckets.first_entry() {
            let at = *first.key();
            let bucket = first.get_mut();
            while let Some(last) = bucket.last() {
                if live(last) {
                    return Some(at);
                }
                bucket.pop();
                self.len -= 1;
            }
            self.spare.push(first.remove());
        }
        None
    }

    /// Removes the earliest bucket if it is due at or before `now`,
    /// leaving later ones alone. Hand it back through
    /// [`InstantQueue::recycle`].
    pub fn take_due(&mut self, now: Time) -> Option<Vec<T>> {
        let first = self.buckets.first_entry()?;
        if *first.key() > now {
            return None;
        }
        let bucket = first.remove();
        self.len -= bucket.len();
        Some(bucket)
    }

    /// Keeps a taken bucket's allocation for a later instant.
    pub fn recycle(&mut self, mut bucket: Vec<T>) {
        bucket.clear();
        self.spare.push(bucket);
    }

    /// Drops every item `keep` rejects, and every bucket left empty.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let (spare, len) = (&mut self.spare, &mut self.len);
        *len = 0;
        self.buckets.retain(|_, bucket| {
            bucket.retain(&mut keep);
            *len += bucket.len();
            if bucket.is_empty() {
                spare.push(std::mem::take(bucket));
                return false;
            }
            true
        });
    }

    /// Every item with its instant, in take order: bucket by bucket in
    /// instant order.
    pub fn iter(&self) -> impl Iterator<Item = (Time, &T)> {
        let buckets = self.buckets.iter();
        buckets.flat_map(|(&at, bucket)| bucket.iter().map(move |item| (at, item)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: f64) -> Time {
        Time::from_secs(secs)
    }

    fn queue<T>(items: impl IntoIterator<Item = (Time, T)>) -> InstantQueue<T> {
        let mut q = InstantQueue::default();
        q.extend(items);
        q
    }

    /// Takes every bucket in instant order, flattened.
    fn drain<T: Copy>(q: &mut InstantQueue<T>) -> Vec<(Time, T)> {
        let mut out = Vec::new();
        while let Some(t) = q.first_instant() {
            let due = q.take_due(t).expect("the first bucket is due");
            out.extend(due.iter().map(|&item| (t, item)));
            q.recycle(due);
        }
        out
    }

    #[test]
    fn orders_by_instant_then_push() {
        let mut q = InstantQueue::default();
        q.push(at(3.0), 30);
        q.push(at(1.0), 10);
        q.push(at(1.0), 11);
        q.push(at(2.0), 20);
        let order: Vec<i32> = drain(&mut q).into_iter().map(|(_, x)| x).collect();
        assert_eq!(order, [10, 11, 20, 30]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn capture_order_round_trips_and_later_ties_break_as_before() {
        let mut q = InstantQueue::default();
        q.push(at(2.0), 'b');
        q.push(at(1.0), 'a');
        q.push(at(1.0), 'c');
        q.push(at(0.5), 'z');
        assert_eq!(q.take_due(at(0.5)).unwrap(), ['z']);
        // The capture is the take order.
        let capture: Vec<(Time, char)> = q.iter().map(|(t, &c)| (t, c)).collect();
        assert_eq!(capture, [(at(1.0), 'a'), (at(1.0), 'c'), (at(2.0), 'b')]);
        let mut r = queue(capture.iter().copied());
        assert!(r.iter().eq(q.iter()));
        // A later same-instant push queues after the restored items in
        // both queues.
        q.push(at(1.0), 'd');
        r.push(at(1.0), 'd');
        let taken = drain(&mut q);
        assert_eq!(taken, drain(&mut r));
        let order: String = taken.into_iter().map(|(_, c)| c).collect();
        assert_eq!(order, "acdb");
    }

    #[test]
    fn peeking_removes_nothing() {
        let mut q = InstantQueue::default();
        q.push(at(1.0), ());
        assert_eq!(q.first_instant(), Some(at(1.0)));
        assert_eq!(q.first_instant(), Some(at(1.0)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.first_live(|_| true), Some(at(1.0)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.take_due(at(1.0)).unwrap(), [()]);
        assert_eq!(q.first_instant(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn extend_files_a_run_of_equal_instants_into_one_bucket() {
        let mut q = InstantQueue::default();
        q.extend([
            (at(1.0), 'a'),
            (at(1.0), 'b'),
            (at(2.0), 'c'),
            (at(1.0), 'd'),
        ]);
        assert_eq!(q.len(), 4);
        assert_eq!(q.buckets.len(), 2);
        assert_eq!(q.buckets[&at(1.0)], ['a', 'b', 'd']);
        assert_eq!(q.buckets[&at(2.0)], ['c']);
    }

    #[test]
    fn first_live_discards_only_from_the_end_of_the_earliest_bucket() {
        let even = |x: &u32| x.is_multiple_of(2);
        let mut q = queue([(at(1.0), 1), (at(1.0), 2), (at(1.0), 3), (at(2.0), 5)]);
        // 3 goes; 1 stays, hidden behind the live 2; 2 s is untouched.
        assert_eq!(q.first_live(even), Some(at(1.0)));
        assert_eq!(q.buckets[&at(1.0)], [1, 2]);
        assert_eq!(q.buckets[&at(2.0)], [5]);
        assert_eq!(q.len(), 3);
        // A bucket with no live item goes whole, and the next one is
        // trimmed from its end.
        let mut q = queue([(at(1.0), 1), (at(1.0), 3), (at(2.0), 4), (at(2.0), 5)]);
        assert_eq!(q.first_live(even), Some(at(2.0)));
        assert!(!q.buckets.contains_key(&at(1.0)));
        assert_eq!(q.buckets[&at(2.0)], [4]);
        assert_eq!((q.len(), q.spare.len()), (1, 1));
        assert_eq!(q.first_live(|_| false), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn take_due_leaves_later_buckets_alone() {
        let mut q = queue([(at(1.0), 'a'), (at(2.0), 'b'), (at(3.0), 'c')]);
        assert_eq!(q.take_due(at(0.5)), None);
        // Only the earliest bucket, even with a later one also due.
        let due = q.take_due(at(2.5)).unwrap();
        assert_eq!(due, ['a']);
        assert_eq!((q.first_instant(), q.len()), (Some(at(2.0)), 2));
        q.recycle(due);
        assert_eq!(q.take_due(at(2.5)).unwrap(), ['b']);
        assert_eq!(q.take_due(at(2.5)), None);
        assert_eq!((q.first_instant(), q.len()), (Some(at(3.0)), 1));
        // A recycled bucket serves the next new instant.
        assert_eq!(q.spare.len(), 1);
        q.push(at(4.0), 'd');
        assert!(q.spare.is_empty());
    }

    #[test]
    fn retain_drops_the_buckets_it_empties() {
        let items = [(at(1.0), 1), (at(1.0), 2), (at(2.0), 3), (at(3.0), 4)];
        let mut q: InstantQueue<u32> = queue(items.into_iter().chain([(at(3.0), 5)]));
        q.retain(|x| x.is_multiple_of(2));
        let kept: Vec<(Time, u32)> = q.iter().map(|(t, &x)| (t, x)).collect();
        assert_eq!(kept, [(at(1.0), 2), (at(3.0), 4)]);
        assert!(!q.buckets.contains_key(&at(2.0)));
        assert_eq!((q.len(), q.spare.len()), (2, 1));
    }
}
