//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions
//! from the benchmark's own code: name, start, end, parent, and the id of
//! the request they belong to. Every span is folded into per-name totals
//! (count, time, self time = time minus the children's time); the first
//! [`KEEP`] spans are also kept whole and written out when the run ends,
//! so memory stays bounded however many requests a run completes. With
//! tracing off every call is a single branch and nothing is stored.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept whole per recorder.
pub const KEEP: usize = 50_000;

/// One kept span. `parent` indexes the same recorder's kept spans.
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// `(count, total ns, self ns)` of the spans of one name.
pub type Totals = (u64, u64, u64);

struct OpenSpan {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

/// A per-thread span recorder; merge thread recorders with
/// [`Tracer::absorb`].
pub struct Tracer {
    on: bool,
    epoch: Instant,
    kept: Vec<Span>,
    open: Vec<OpenSpan>,
    totals: Vec<(&'static str, Totals)>,
}

/// Handle of an open span; spans close innermost first.
pub struct Open(bool);

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            kept: Vec::new(),
            open: Vec::new(),
            totals: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A recorder for another thread, sharing this one's clock.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(false);
        }
        let start_ns = self.now();
        let kept = (self.kept.len() < KEEP).then(|| {
            self.kept.push(Span {
                name,
                req,
                parent: self.open.last().and_then(|o| o.kept),
                start_ns,
                end_ns: start_ns,
            });
            (self.kept.len() - 1) as u32
        });
        self.open.push(OpenSpan {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
        Open(true)
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, span: Open) {
        if !span.0 {
            return;
        }
        let now = self.now();
        let s = self.open.pop().expect("end matches a begin");
        let dur = now.saturating_sub(s.start_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = s.kept {
            self.kept[i as usize].end_ns = now;
        }
        self.add(s.name, (1, dur, dur.saturating_sub(s.child_ns)));
    }

    fn add(&mut self, name: &'static str, t: Totals) {
        let i = match self.totals.iter().position(|e| e.0 == name) {
            Some(i) => i,
            None => {
                self.totals.push((name, (0, 0, 0)));
                self.totals.len() - 1
            }
        };
        let slot = &mut self.totals[i].1;
        slot.0 += t.0;
        slot.1 += t.1;
        slot.2 += t.2;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, req);
        let r = f();
        self.end(s);
        r
    }

    /// Moves another thread's spans and totals into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            self.add(name, t);
        }
        let base = self.kept.len() as u32;
        let room = KEEP.saturating_sub(self.kept.len());
        self.kept
            .extend(other.kept.into_iter().take(room).map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
    }

    /// Totals of the spans named `name`.
    pub fn totals(&self, name: &str) -> Totals {
        self.totals
            .iter()
            .find(|e| e.0 == name)
            .map_or((0, 0, 0), |e| e.1)
    }

    /// Spans recorded, kept whole or not.
    pub fn recorded(&self) -> u64 {
        self.totals.iter().map(|e| e.1 .0).sum()
    }

    /// Writes every kept span as one CSV line:
    /// `id,parent,req,name,start_ns,end_ns` (`parent` -1 for roots).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,req,name,start_ns,end_ns")?;
        for (i, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                w,
                "{i},{parent},{},{},{},{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", 1);
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let (n, total, own) = t.totals("outer");
        assert_eq!(n, 1);
        assert!(own < total && total - own >= 2_000_000);
        assert_eq!(t.kept[1].parent, Some(0));
        assert_eq!(t.recorded(), 2);
    }

    #[test]
    fn totals_survive_past_the_kept_spans() {
        let mut t = Tracer::new(true, Instant::now());
        for i in 0..(KEEP as u64 + 10) {
            t.span("x", i, || ());
        }
        assert_eq!(t.kept.len(), KEEP);
        assert_eq!(t.totals("x").0, KEEP as u64 + 10);
        let mut u = t.fork();
        u.span("y", 0, || ());
        t.absorb(u);
        assert_eq!(t.totals("y").0, 1);
        assert_eq!(t.kept.len(), KEEP);
    }

    #[test]
    fn disabled_tracer_stores_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("x", 0);
        t.end(s);
        assert_eq!(t.recorded(), 0);
    }
}
