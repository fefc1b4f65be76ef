//! Spans recorded from outside the engine, around calls into its public
//! functions. Kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. Spans of one wave share its wave id; `parent` is the
/// span that was open when this one started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub wave: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for the driver thread. Switched off it records nothing
/// and reads no clock, so measured runs go through the same driver code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    wave: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            wave: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans opened from now on belong to wave `wave`.
    pub fn set_wave(&mut self, wave: usize) {
        self.wave = wave as u32;
    }

    /// Time `f` as a span named `name`, nested in whatever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            wave: self.wave,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One JSON object per line, in start order.
pub fn write_jsonl(spans: &[Span], mut w: impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"wave\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.wave, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

/// Per span name: how many, their total duration, and their self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Total {
    pub fn total_us(&self) -> f64 {
        self.total_ns as f64 / 1e3
    }
}

/// Totals by span name. Self time = duration − the part of the span's
/// interval that its direct children cover.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            // Union of the child intervals, clipped to the parent.
            let mut frontier = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(frontier), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns() - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            wave: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(0, None, "wave", 0, 100),
            span(1, Some(0), "run", 10, 60),
            span(2, Some(1), "leaf", 20, 30),
            span(3, Some(1), "leaf", 25, 45), // overlaps its sibling
            span(4, Some(0), "run", 70, 90),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["wave"],
            Total {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        // 50 − |[20,45)| + 20 − 0
        assert_eq!(
            t["run"],
            Total {
                count: 2,
                total_ns: 70,
                self_ns: 45
            }
        );
        assert_eq!(t["leaf"].self_ns, 30);
    }

    #[test]
    fn tracer_nests_spans_and_is_silent_when_off() {
        let mut on = Tracer::on();
        on.set_wave(3);
        let v = on.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.wave == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut text = Vec::new();
        write_jsonl(on.spans(), &mut text).unwrap();
        assert_eq!(String::from_utf8(text).unwrap().lines().count(), 2);

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
