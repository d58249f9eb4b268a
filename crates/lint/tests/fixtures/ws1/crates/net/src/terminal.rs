//! Fixture: a role state machine, which the receive loop steps inline,
//! with one seeded panic finding and one allowlisted panic.

pub fn step(recon: Option<u8>) -> u8 {
    recon.expect("checked")
}

pub fn annotated(bound: Option<u16>) -> u16 {
    // lint: allow(panic): fixture-justified bound checked on entry
    bound.unwrap()
}
