//! Fixture: session code the virtual clock runs, with one seeded
//! implicit wall-clock read and one allowlisted twin. Never compiled —
//! only scanned.

pub fn span(entered: std::time::Instant) -> std::time::Duration {
    entered.elapsed()
}

pub fn annotated(entered: std::time::Instant) -> std::time::Duration {
    // lint: allow(determinism): fixture demonstrates the annotation
    entered.elapsed()
}
