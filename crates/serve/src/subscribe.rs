//! Client side of the live event-log subscription.
//!
//! [`Subscription::open`] connects to a campaign server, sends
//! [`Message::Subscribe`], and then yields [`Batch`]es until the server
//! reports the log complete. The stream a keeping-up subscriber records
//! (the concatenation of every batch's lines) is byte-identical to the
//! post-run merged event log — the chaos suite pins this across SIGKILL
//! and reassignment.

use crate::protocol::{Conn, Endpoint, Message};
use std::io::{self, Read};

/// One delivered run of published events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Sequence number of `lines[0]` (0 when `lines` is empty).
    pub first_seq: u64,
    /// JSONL event lines, in published order.
    pub lines: Vec<String>,
    /// Cumulative events this subscriber lost to its queue bound.
    pub dropped: u64,
    /// The campaign finished and the published log was fully delivered.
    pub done: bool,
}

/// A live tail of the server's published merged event log.
pub struct Subscription {
    reader: Box<dyn Read + Send>,
    finished: bool,
}

impl Subscription {
    /// Connect and subscribe from `from_seq` (0 = the whole log).
    /// `queue_cap` bounds the server-side queue; 0 takes the server
    /// default, tests pass tiny caps to exercise the lag path.
    pub fn open(endpoint: &Endpoint, from_seq: u64, queue_cap: u64) -> io::Result<Subscription> {
        let mut conn: Conn = endpoint.connect()?;
        Message::Subscribe {
            from_seq,
            queue_cap,
        }
        .write_to(&mut conn.writer)?;
        Ok(Subscription {
            reader: conn.reader,
            finished: false,
        })
    }

    /// Block for the next batch. Returns `Ok(None)` after the `done`
    /// batch has been yielded or when the server closes the stream.
    pub fn next_batch(&mut self) -> io::Result<Option<Batch>> {
        if self.finished {
            return Ok(None);
        }
        match Message::read_from(&mut self.reader)? {
            Some(Message::EventBatch {
                first_seq,
                lines,
                dropped,
                done,
            }) => {
                if done {
                    self.finished = true;
                }
                Ok(Some(Batch {
                    first_seq,
                    lines,
                    dropped,
                    done,
                }))
            }
            Some(other) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected message on subscription: {other:?}"),
            )),
            None => {
                self.finished = true;
                Ok(None)
            }
        }
    }

    /// Drain the stream to completion, returning every line in order and
    /// the final cumulative drop count. Convenience for `--once` clients
    /// and tests that want the whole log.
    pub fn drain(mut self) -> io::Result<(Vec<String>, u64)> {
        let mut lines = Vec::new();
        let mut dropped = 0;
        while let Some(batch) = self.next_batch()? {
            lines.extend(batch.lines);
            dropped = batch.dropped;
            if batch.done {
                break;
            }
        }
        Ok((lines, dropped))
    }
}
