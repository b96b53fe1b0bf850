//! The engine-facing observer trait and basic observers.

use crate::event::SimEvent;

/// Receives every [`SimEvent`] the engine emits.
///
/// The engine is generic over its observer and consults
/// `Self::ENABLED` (a `const`) before *constructing* each event, so
/// with the default [`NullObserver`] every emission site monomorphizes
/// to dead code and the hot path pays nothing.
pub trait SimObserver {
    /// Whether the engine should construct and deliver events at all.
    /// Implementations that consume events leave this `true`.
    const ENABLED: bool = true;

    /// Handle one event. Called in slot order.
    fn on_event(&mut self, event: &SimEvent);

    /// Called once when the run terminates (after the last slot).
    fn on_finish(&mut self) {}
}

/// The default do-nothing observer; `ENABLED = false` compiles all
/// event construction out of the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl SimObserver for NullObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_event(&mut self, _event: &SimEvent) {}
}

/// Collects every event into a vector — handy in tests and for
/// small-run analysis without touching the filesystem.
#[derive(Clone, Debug, Default)]
pub struct VecObserver {
    /// All events observed so far, in emission order.
    pub events: Vec<SimEvent>,
}

impl SimObserver for VecObserver {
    fn on_event(&mut self, event: &SimEvent) {
        self.events.push(*event);
    }
}

/// Observers compose as pairs: `(a, b)` feeds both.
impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_event(&mut self, event: &SimEvent) {
        if A::ENABLED {
            self.0.on_event(event);
        }
        if B::ENABLED {
            self.1.on_event(event);
        }
    }

    fn on_finish(&mut self) {
        if A::ENABLED {
            self.0.on_finish();
        }
        if B::ENABLED {
            self.1.on_finish();
        }
    }
}

/// `&mut O` observes too, so an observer can be borrowed by an engine
/// and inspected afterwards without being consumed.
impl<O: SimObserver> SimObserver for &mut O {
    const ENABLED: bool = O::ENABLED;

    fn on_event(&mut self, event: &SimEvent) {
        (**self).on_event(event);
    }

    fn on_finish(&mut self) {
        (**self).on_finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::NodeId;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_observer_is_disabled() {
        assert!(!NullObserver::ENABLED);
        assert!(VecObserver::ENABLED);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn pair_enabled_is_or() {
        assert!(<(NullObserver, VecObserver)>::ENABLED);
        assert!(!<(NullObserver, NullObserver)>::ENABLED);
    }

    #[test]
    fn pair_feeds_both_sides() {
        let mut pair = (VecObserver::default(), VecObserver::default());
        let ev = SimEvent::Deferred {
            slot: 1,
            sender: NodeId(2),
            receiver: NodeId(3),
            packet: 0,
        };
        pair.on_event(&ev);
        pair.on_finish();
        assert_eq!(pair.0.events, vec![ev]);
        assert_eq!(pair.1.events, vec![ev]);
    }

    #[test]
    fn mut_ref_observer_forwards() {
        let mut v = VecObserver::default();
        {
            let mut r = &mut v;
            SimObserver::on_event(
                &mut r,
                &SimEvent::Deferred {
                    slot: 9,
                    sender: NodeId(1),
                    receiver: NodeId(0),
                    packet: 4,
                },
            );
        }
        assert_eq!(v.events.len(), 1);
    }
}
