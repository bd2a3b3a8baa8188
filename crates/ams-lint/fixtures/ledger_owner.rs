//! Fixture: outcome buckets mutated outside the ledger.

struct Counts {
    offered: u64,
    completed: u64,
    value_shed: f64,
}

fn bump_with_event(c: &mut Counts, obs: &Obs) {
    obs.emit(EventKind::Admitted);
    c.offered += 1;
}

fn fold(total: &mut Counts, shard: &Counts) {
    total.completed += shard.completed;
}

fn shed_value(c: &mut Counts, v: f64) {
    c.value_shed += v;
}

fn atomic(shared: &Shared) {
    shared.rejected.fetch_add(1, Ordering::Relaxed);
}

fn reset(c: &mut Counts) {
    c.cancelled = 0;
}

fn reads_are_fine(c: &Counts) -> bool {
    c.offered == c.completed && c.offered >= 1 && shared.rejected.load(Ordering::Relaxed) > 0
}

fn record(ledger: &Ledger, rec: Record) {
    ledger.record(rec);
}

fn allowed_site(c: &mut Counts) {
    c.completed += 1; // ams-lint: allow(ledger-owner) fixture: an explained escape is honored
}
