//! The one host fan-out, shared by multi-worker refinement and ingest.

/// Run `job(w)` for workers `0..workers` and return the outputs in worker
/// order: on the calling thread for one worker, on scoped threads
/// otherwise. Callers time their own jobs.
pub(crate) fn fan_out<T: Send>(workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    assert!(workers >= 1, "fan_out needs at least one worker");
    if workers == 1 {
        return vec![job(0)];
    }
    let job = &job;
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|w| s.spawn(move |_| job(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("host worker panicked"))
            .collect()
    })
    .expect("host worker scope failed")
}

#[cfg(test)]
mod tests {
    use super::fan_out;
    use std::thread;

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        assert_eq!(fan_out(1, |_| thread::current().id()), vec![caller]);
    }

    #[test]
    fn outputs_come_back_in_worker_order() {
        let caller = thread::current().id();
        for workers in [2usize, 4] {
            let out = fan_out(workers, |w| (w, thread::current().id()));
            let order: Vec<usize> = out.iter().map(|&(w, _)| w).collect();
            assert_eq!(order, (0..workers).collect::<Vec<_>>());
            assert!(out.iter().all(|&(_, id)| id != caller));
        }
    }
}
