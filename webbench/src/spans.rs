//! In-memory spans for the traced replay, and self-time attribution.
//!
//! A span is one call into a layer: a name (`layer`), start and end
//! (wall clock), the CPU time and allocations the thread spent inside
//! it, its parent span and its request id. A layer's self time is the
//! span's duration minus the part of it that child spans cover.

use crate::procstat::thread_cpu_ns;
use std::io::{self, Write};
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// Reports closer together than this belong to one batch. Consecutive
/// reports of one query are a loop iteration apart (well under this);
/// two queries are separated by at least a statement's parse, lock and
/// execution.
pub const BATCH_GAP_NS: u64 = 1_000;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request the span belongs to.
    pub req: u32,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// Index into the caller's layer-name table.
    pub layer: u16,
    /// Wall-clock start.
    pub start: u64,
    /// Wall-clock end.
    pub end: u64,
    /// Thread CPU time inside the span.
    pub cpu: u64,
    /// Heap allocations inside the span.
    pub allocs: u64,
}

/// Records spans on one thread. `allocs` reads the thread's allocation
/// count (always 0 when no counting allocator is installed).
pub struct Tracer {
    epoch: Instant,
    allocs: fn() -> u64,
    spans: Vec<Span>,
    /// Open spans: index, CPU and allocation count at entry.
    open: Vec<(usize, u64, u64)>,
    /// For children reported under the innermost open span: when the
    /// last report arrived, and where the current batch's children
    /// begin.
    batch: Option<(u64, u64)>,
    req: u32,
}

impl Tracer {
    /// An empty tracer with room for `capacity` spans, so recording
    /// does not allocate inside measured calls.
    pub fn new(capacity: usize, allocs: fn() -> u64) -> Self {
        Tracer {
            epoch: Instant::now(),
            allocs,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            batch: None,
            req: 0,
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Starts request `req`; spans opened from now on belong to it.
    pub fn set_request(&mut self, req: u32) {
        self.req = req;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, layer: u16) {
        let parent = self.open.last().map_or(NO_PARENT, |o| o.0 as u32);
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            req: self.req,
            parent,
            layer,
            start,
            end: start,
            cpu: 0,
            allocs: 0,
        });
        self.batch = None;
        self.open.push((index, thread_cpu_ns(), (self.allocs)()));
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let allocs = (self.allocs)();
        let cpu = thread_cpu_ns();
        let end = self.now();
        let (index, cpu0, allocs0) = self.open.pop().expect("end() without begin()");
        let span = &mut self.spans[index];
        span.end = end;
        span.cpu = cpu.saturating_sub(cpu0);
        span.allocs = allocs.saturating_sub(allocs0);
        self.batch = None;
    }

    /// Records a child of the innermost open span that a callback
    /// reported as a duration just ended. One query's plan nodes are
    /// reported together, after the query: reports less than
    /// [`BATCH_GAP_NS`] apart form a batch, laid end to end backwards
    /// from the first report, so children never overlap and their
    /// durations sum. The thread ran the whole time, so the child's CPU
    /// time is its duration.
    pub fn child_done(&mut self, layer: u16, nanos: u64) {
        let parent = self.open.last().map_or(NO_PARENT, |o| o.0 as u32);
        let now = self.now();
        let end = match self.batch {
            // A report that would reach back past the previous one
            // cannot start a new query's batch either.
            Some((last, start))
                if now - last < BATCH_GAP_NS || now.saturating_sub(nanos) < last =>
            {
                start
            }
            _ => now,
        };
        self.batch = Some((now, end.saturating_sub(nanos)));
        self.spans.push(Span {
            req: self.req,
            parent,
            layer,
            start: end.saturating_sub(nanos),
            end,
            cpu: nanos,
            allocs: 0,
        });
    }

    /// Writes every span as a tab-separated line:
    /// `req index parent layer start_ns end_ns cpu_ns allocs`.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_tsv(&self, names: &[&str], out: &mut dyn Write) -> io::Result<()> {
        writeln!(
            out,
            "req\tspan\tparent\tlayer\tstart_ns\tend_ns\tcpu_ns\tallocs"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.req, names[s.layer as usize], s.start, s.end, s.cpu, s.allocs
            )?;
        }
        Ok(())
    }
}

/// Self time of one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Wall time not covered by any child span.
    pub wall: u64,
    /// CPU time minus the children's CPU time.
    pub cpu: u64,
    /// Allocations minus the children's allocations.
    pub allocs: u64,
}

/// The self time of every span, in `spans` order. A child's interval
/// is clipped to its parent's, and overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            SelfTime {
                wall: (s.end - s.start).saturating_sub(covered),
                cpu: s
                    .cpu
                    .saturating_sub(kids.iter().map(|&k| spans[k].cpu).sum()),
                allocs: s
                    .allocs
                    .saturating_sub(kids.iter().map(|&k| spans[k].allocs).sum()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start: u64, end: u64, cpu: u64, allocs: u64) -> Span {
        Span {
            req: 0,
            parent,
            layer: 0,
            start,
            end,
            cpu,
            allocs,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(NO_PARENT, 0, 100, 90, 10), // root
            span(0, 10, 30, 20, 3),          // child A
            span(0, 20, 40, 15, 1),          // child B overlaps A: union 10..40
            span(1, 12, 18, 6, 2),           // grandchild inside A
            span(0, 90, 120, 5, 0),          // child C runs past the root: clipped to 90..100
        ];
        let st = self_times(&spans);
        assert_eq!(st[0].wall, 100 - 30 - 10);
        assert_eq!(st[0].cpu, 90 - 20 - 15 - 5);
        assert_eq!(st[0].allocs, 10 - 3 - 1);
        assert_eq!(st[1].wall, 20 - 6);
        assert_eq!(st[1].allocs, 1);
        assert_eq!(st[2].wall, 20);
        assert_eq!(st[3].wall, 6);
        assert_eq!(st[4].wall, 30);
    }

    #[test]
    fn leaf_self_times_sum_to_the_root_when_children_tile_it() {
        let spans = [
            span(NO_PARENT, 0, 50, 50, 0),
            span(0, 0, 20, 20, 0),
            span(0, 20, 50, 30, 0),
        ];
        let total: u64 = self_times(&spans).iter().map(|s| s.wall).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn reported_children_never_overlap_and_stay_inside_the_parent() {
        let mut t = Tracer::new(64, || 0);
        t.begin(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        // One query's nodes arrive back to back after the query ran.
        t.child_done(1, 300_000);
        t.child_done(1, 10);
        t.child_done(1, 200_000);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.child_done(1, 100_000);
        t.end();
        let spans = t.spans();
        let root = spans[0];
        let mut kids: Vec<Span> = spans[1..].to_vec();
        kids.sort_by_key(|s| s.start);
        for pair in kids.windows(2) {
            assert!(pair[0].end <= pair[1].start, "{pair:?}");
        }
        for k in &kids {
            assert!(
                k.start >= root.start && k.end <= root.end,
                "{k:?} outside {root:?}"
            );
        }
        let st = self_times(spans);
        let covered: u64 = kids.iter().map(|k| k.end - k.start).sum();
        assert_eq!(st[0].wall, root.end - root.start - covered);
        assert_eq!(covered, 600_010);
    }
}
