//! Streaming verdict emission: the sink trait, its two implementations,
//! and the sequence-numbered reorder buffer that keeps a parallel stream
//! byte-deterministic.

use std::collections::BTreeMap;
use std::io::{self, Write};

/// Consumes one verdict line at a time, as instances complete.
///
/// Implementations must be `Send`: the service emits from whichever worker
/// thread completes the next in-order instance.
pub trait VerdictSink: Send {
    /// Emits one verdict line (without the trailing newline).
    fn emit(&mut self, line: &str) -> io::Result<()>;

    /// Called once after the last line; flush buffers here.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Streams verdict lines to any writer, one JSON object per line.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    writer: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer (callers wanting buffering pass a `BufWriter`).
    pub fn new(writer: W) -> Self {
        Self { writer }
    }

    /// Unwraps the writer (e.g. to inspect a `Vec<u8>` in tests).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write + Send> VerdictSink for JsonlSink<W> {
    fn emit(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Collects verdict lines in memory (tests, benches, programmatic use).
#[derive(Debug, Default)]
pub struct MemorySink {
    lines: Vec<String>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lines emitted so far, in emission order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Consumes the sink, returning its lines.
    pub fn into_lines(self) -> Vec<String> {
        self.lines
    }
}

impl VerdictSink for MemorySink {
    fn emit(&mut self, line: &str) -> io::Result<()> {
        self.lines.push(line.to_string());
        Ok(())
    }
}

/// The sink of a stream that has no lines: its jobs only return values.
impl VerdictSink for () {
    fn emit(&mut self, _line: &str) -> io::Result<()> {
        Ok(())
    }
}

/// Restores admission order over out-of-order completions.
///
/// Workers complete instances in scheduling order; the buffer holds each
/// completion under its sequence number and releases the longest ready
/// prefix to the sink.  A `None` entry is a *gap*: the sequence number is
/// consumed without emitting a line (used by campaign streaming, where
/// rejected instances produce no verdict but still occupy a slot).
#[derive(Debug, Default)]
pub(crate) struct ReorderBuffer {
    next: usize,
    pending: BTreeMap<usize, Option<String>>,
}

impl ReorderBuffer {
    /// An empty buffer expecting sequence number 0 first.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers the completion of `seq` and drains every line that is now
    /// in order into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error; the buffer stays consistent (the
    /// failed line is not re-emitted).
    pub(crate) fn push(
        &mut self,
        seq: usize,
        line: Option<String>,
        sink: &mut dyn VerdictSink,
    ) -> io::Result<()> {
        self.pending.insert(seq, line);
        while let Some(entry) = self.pending.remove(&self.next) {
            self.next += 1;
            if let Some(line) = entry {
                sink.emit(&line)?;
            }
        }
        Ok(())
    }

    /// `true` when every registered completion has been released.
    pub(crate) fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }

    /// The next sequence number the buffer is waiting for.
    pub(crate) fn next_seq(&self) -> usize {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_buffer_restores_admission_order() {
        let mut buffer = ReorderBuffer::new();
        let mut sink = MemorySink::new();
        for seq in [2usize, 0, 3, 1] {
            buffer
                .push(seq, Some(format!("line-{seq}")), &mut sink)
                .unwrap();
        }
        assert_eq!(sink.lines(), ["line-0", "line-1", "line-2", "line-3"]);
        assert!(buffer.is_drained());
        assert_eq!(buffer.next_seq(), 4);
    }

    #[test]
    fn gaps_consume_a_sequence_number_without_emitting() {
        let mut buffer = ReorderBuffer::new();
        let mut sink = MemorySink::new();
        buffer.push(1, Some("b".into()), &mut sink).unwrap();
        buffer.push(0, None, &mut sink).unwrap();
        buffer.push(2, Some("c".into()), &mut sink).unwrap();
        assert_eq!(sink.lines(), ["b", "c"]);
        assert!(buffer.is_drained());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_emit() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit("{\"a\": 1}").unwrap();
        sink.emit("{\"b\": 2}").unwrap();
        sink.finish().unwrap();
        let bytes = sink.into_inner();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            "{\"a\": 1}\n{\"b\": 2}\n"
        );
    }
}
