//! Message delivery guarantees.
//!
//! Spread — the toolkit the paper deploys — offers several delivery
//! guarantees; the replicator consumes two of them. Agreed (total) order
//! carries requests, replies and the style-switch protocol, so every replica
//! sees them in the same order; FIFO (by sender) carries checkpoints, which
//! only need to arrive in the order the primary produced them.

use std::fmt;

/// The delivery guarantee requested for a multicast message. Both are
/// reliable: every message carries a per-sender sequence number and gaps are
/// recovered by retransmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeliveryOrder {
    /// Reliable, delivered in the order sent by each sender.
    Fifo,
    /// Reliable, all members deliver in one agreed total order (also
    /// FIFO- and gap-consistent). Spread calls this *agreed*/*total*.
    Agreed,
}

impl fmt::Display for DeliveryOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeliveryOrder::Fifo => "fifo",
            DeliveryOrder::Agreed => "agreed",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(DeliveryOrder::Agreed.to_string(), "agreed");
        assert_eq!(DeliveryOrder::Fifo.to_string(), "fifo");
    }
}
