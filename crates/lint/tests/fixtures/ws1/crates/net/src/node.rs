//! Fixture: a module the virtual clock runs, with one seeded wall-clock
//! read. Never compiled — only scanned.

pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn unordered() -> std::collections::HashMap<u8, u8> {
    // Only the wall-clock half of the determinism ban applies here.
    std::collections::HashMap::new()
}

#[cfg(test)]
mod tests {
    fn timed() {
        let _t = std::time::Instant::now();
    }
}
