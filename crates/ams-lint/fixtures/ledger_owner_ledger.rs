//! Fixture: inside the ledger, a bump still emits its event in the same fn.

fn apply(&self, t: &mut Tally, rec: &Record) {
    if let Some(obs) = &self.obs {
        obs.emit(rec.event());
    }
    t.offered += 1;
    t.value_offered += rec.value;
}

fn silent_bump(t: &mut Tally) {
    t.cancelled += 1;
}

fn merge(&mut self, o: &Tally) {
    self.offered += o.offered;
    self.value_shed += o.value_shed;
}

fn crossed_merge(&mut self, o: &Tally) {
    self.offered += o.completed;
}

fn worker_apply(obs: &Obs, t: &mut Tally) {
    obs.emit_worker(0, ev);
    t.shed_deadline += 1;
}
