//! Self time from a `coyote_obs` trace.
//!
//! A span's *self time* is its duration minus the part of its interval
//! covered by its direct children on the same lane. Spans on one lane come
//! from one thread, so they are either disjoint or nested, and a stack walk
//! over the lane's events sorted by start time finds every span's parent.

use coyote_obs::TraceEvent;
use std::collections::BTreeMap;

/// Self time in nanoseconds of every event, in the order of `events`.
fn per_event(events: &[TraceEvent]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = events.iter().map(|e| e.dur_ns).collect();
    let mut order: Vec<usize> = (0..events.len()).collect();
    // Lane-major, then by start; a parent that starts at the same
    // nanosecond as its child sorts first because it is shallower.
    order.sort_by_key(|&i| (events[i].lane, events[i].start_ns, events[i].depth));
    let mut stack: Vec<usize> = Vec::new();
    let mut lane = None;
    for &i in &order {
        let event = &events[i];
        if lane != Some(event.lane) {
            stack.clear();
            lane = Some(event.lane);
        }
        while let Some(&top) = stack.last() {
            if end(&events[top]) <= event.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            let covered = end(event).min(end(&events[parent])) - event.start_ns;
            self_ns[parent] = self_ns[parent].saturating_sub(covered);
        }
        stack.push(i);
    }
    self_ns
}

/// Total self time in nanoseconds per span name, over all lanes.
pub fn by_name(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (event, ns) in events.iter().zip(per_event(events)) {
        *totals.entry(event.name).or_insert(0) += ns;
    }
    totals
}

/// Total inclusive time in nanoseconds per span name, over all lanes.
pub fn inclusive_by_name(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for event in events {
        *totals.entry(event.name).or_insert(0) += event.dur_ns;
    }
    totals
}

/// The events that lie wholly inside one of `windows` (half-open
/// `[start, end)` nanosecond intervals, sorted and disjoint).
pub fn within(events: &[TraceEvent], windows: &[(u64, u64)]) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| {
            // The last window that starts at or before the event.
            let idx = windows.partition_point(|&(start, _)| start <= e.start_ns);
            idx > 0 && end(e) <= windows[idx - 1].1
        })
        .cloned()
        .collect()
}

fn end(event: &TraceEvent) -> u64 {
    event.start_ns + event.dur_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, lane: u32, start_ns: u64, dur_ns: u64, depth: u32) -> TraceEvent {
        TraceEvent {
            name,
            lane,
            start_ns,
            dur_ns,
            depth,
        }
    }

    /// Lane 0: `root` [0, 100) holds `a` [10, 30) and `b` [40, 100) with a
    /// gap between them; `b` holds `c` [50, 60) and `d` [70, 100), and `d`
    /// ends exactly where both `b` and `root` end. Lane 1 runs `root`
    /// [5, 55) over `a` [5, 25) at the same time, which must not count
    /// against lane 0.
    fn synthetic() -> Vec<TraceEvent> {
        // Completion order, as the registry stores them.
        vec![
            ev("a", 0, 10, 20, 1),
            ev("a", 1, 5, 20, 1),
            ev("c", 0, 50, 10, 2),
            ev("root", 1, 5, 50, 0),
            ev("d", 0, 70, 30, 2),
            ev("b", 0, 40, 60, 1),
            ev("root", 0, 0, 100, 0),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_lane() {
        let events = synthetic();
        assert_eq!(per_event(&events), vec![20, 20, 10, 30, 30, 20, 20]);
        let totals = by_name(&events);
        assert_eq!(totals["root"], 20 + 30);
        assert_eq!(totals["a"], 40);
        assert_eq!(totals["b"], 20);
        assert_eq!(totals["c"], 10);
        assert_eq!(totals["d"], 30);
        // Self times partition each lane's busy time exactly.
        let lane0: u64 = events
            .iter()
            .zip(per_event(&events))
            .filter(|(e, _)| e.lane == 0)
            .map(|(_, ns)| ns)
            .sum();
        assert_eq!(lane0, 100);
        assert_eq!(inclusive_by_name(&events)["root"], 150);
    }

    #[test]
    fn a_child_starting_with_its_parent_still_nests() {
        let events = vec![ev("child", 0, 0, 10, 1), ev("parent", 0, 0, 10, 0)];
        assert_eq!(per_event(&events), vec![10, 0]);
    }

    #[test]
    fn a_span_starting_where_another_ends_is_a_sibling() {
        let events = vec![ev("first", 0, 0, 10, 0), ev("second", 0, 10, 5, 0)];
        assert_eq!(per_event(&events), vec![10, 5]);
    }

    #[test]
    fn within_keeps_only_events_inside_a_window() {
        let events = synthetic();
        let kept = within(&events, &[(0, 35), (45, 65)]);
        let names: Vec<(&str, u32)> = kept.iter().map(|e| (e.name, e.lane)).collect();
        assert_eq!(names, vec![("a", 0), ("a", 1), ("c", 0)]);
        assert!(within(&events, &[]).is_empty());
    }
}
