//! In-memory span recorder. Spans are recorded around the probe's calls
//! into each layer (never inside the program), kept in memory, and written
//! once when the probe exits.

use std::time::Instant;

/// Label keys, in the order they are written.
pub const LABEL_KEYS: [&str; 3] = ["k", "backend", "procs"];

/// One timed call into a layer. `parent` is the id of the enclosing span
/// (the span that caused this one); every span of a probe run descends
/// from the root span, whose id is 0.
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    /// Values for [`LABEL_KEYS`], `None` where a label does not apply.
    pub labels: [Option<String>; 3],
    /// Whether the workload's own job executes this call (the spans summed
    /// into `probe.path_s`). On-path spans never nest.
    pub on_path: bool,
    pub start_ns: u128,
    pub end_ns: u128,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Labels of a span: `(k, backend, procs)`.
#[derive(Default, Clone, Copy)]
pub struct Labels<'a> {
    pub k: Option<usize>,
    pub backend: Option<&'a str>,
    pub procs: Option<usize>,
}

impl Tracer {
    /// Starts the recorder with the root span `probe` open.
    pub fn new() -> Self {
        let mut tracer = Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        };
        tracer.begin("probe", Labels::default(), false);
        tracer
    }

    fn begin(&mut self, name: &str, labels: Labels, on_path: bool) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            labels: [
                labels.k.map(|k| k.to_string()),
                labels.backend.map(str::to_owned),
                labels.procs.map(|p| p.to_string()),
            ],
            on_path,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        // Read the clock last so bookkeeping stays outside the span.
        self.spans[id].start_ns = self.origin.elapsed().as_nanos();
        id
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos();
        assert_eq!(self.open.pop(), Some(id), "spans must close in LIFO order");
    }

    /// Times `f` as a child of the innermost open span and returns its
    /// result with the span's duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &str,
        labels: Labels,
        on_path: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let id = self.begin(name, labels, on_path);
        let out = std::hint::black_box(f(self));
        self.end(id);
        (out, self.spans[id].seconds())
    }

    /// Closes the root span and returns every span, in start order.
    pub fn finish(mut self) -> Vec<Span> {
        self.end(0);
        self.spans
    }
}
