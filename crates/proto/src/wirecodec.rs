//! [`wire`] codec tables for the session-protocol messages.
//!
//! `UpdateBatch` reuses the codec the WAL already journals it with — the
//! same bytes travel the socket and the log. An extent travels as one
//! length-prefixed byte string, already in its own wire encoding.

use crate::{CommitReceipt, ErrorKind, HistogramSummary, Request, Response, ServerStats, WireErr};
use wire::codec;

codec!(enum Request {
    0 => Hello { client, protocol },
    1 => RegisterView { name, query },
    2 => DropView { name },
    3 => Submit(batch),
    4 => Flush,
    5 => Commit,
    6 => QueryView { name },
    7 => Stats,
    8 => MetricsDump,
    9 => Shutdown,
});

codec!(enum Response {
    0 => HelloOk { server, protocol, views },
    1 => Registered { name },
    2 => Dropped { name },
    3 => Submitted { queued_batches, queued_ops },
    4 => Flushed { chunks_applied },
    5 => Committed(receipt),
    6 => Extent { name, bytes as Bytes, epoch, watermark },
    7 => Stats(stats),
    8 => Metrics { json },
    9 => ShuttingDown,
    10 => Error(err),
});

codec!(struct CommitReceipt {
    batches_submitted,
    batches_applied,
    ops,
    resolved,
    views_touched,
    validate_ns,
    propagate_ns,
    apply_ns,
});

codec!(struct HistogramSummary { name, count, p50_ns, p90_ns, p99_ns, max_ns });

codec!(struct ServerStats {
    views,
    docs,
    batches,
    updates_seen,
    views_routed,
    views_skipped,
    generation,
    wal_records,
    wal_bytes,
    connections_accepted,
    connections_active,
    requests,
    frame_errors,
    epoch,
    epoch_watermark,
    epoch_age_us,
    request_latency,
});

codec!(struct WireErr { kind, detail });

codec!(enum ErrorKind {
    0 => QueueFull { capacity },
    1 => HubClosed,
    2 => UnknownView { name },
    3 => DuplicateView { name },
    4 => Catalog,
    5 => Journal,
    6 => Frame,
    7 => Protocol,
    8 => ConnectionLimit { max },
    9 => ShuttingDown,
});
