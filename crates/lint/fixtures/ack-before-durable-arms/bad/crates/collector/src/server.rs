//! Positive: the frame-apply path journals report batches at its top,
//! then its `FINALIZE` arm hands the finalized view to the pump before
//! that arm's own journal append. The whole-function pass trusts every
//! token after the first append; the per-arm pass flags the handoff.

pub mod frames {
    pub const OPEN: u8 = 0x01;
    pub const FINALIZE: u8 = 0x04;
    pub const REPORT_BATCH: u8 = 0x07;
    pub const ACK: u8 = 0x81;
}

pub struct Journal {
    bytes: u64,
}

impl Journal {
    pub fn append(&mut self, payload: &[u8]) {
        self.bytes += payload.len() as u64;
    }
}

/// What applying a frame concluded.
pub enum Frame {
    /// Nothing to send.
    Continue,
    /// A reply constant to stage.
    Reply(u8),
    /// A finalized view the pump streams as a `VIEW` frame.
    View(Vec<u64>),
}

pub fn apply_frame(journal: &mut Journal, kind: u8, payload: &[u8]) -> Frame {
    if kind == frames::REPORT_BATCH {
        journal.append(payload);
        return Frame::Continue;
    }
    match kind {
        frames::OPEN => {
            journal.append(payload);
            Frame::Reply(frames::ACK)
        }
        frames::FINALIZE => {
            let view = Frame::View(Vec::new());
            journal.append(payload);
            view
        }
        _ => Frame::Continue,
    }
}
