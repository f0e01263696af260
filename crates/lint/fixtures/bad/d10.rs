// Fixture: D10 — thread/process spawns outside the audited surface.
// All parallelism must flow through map_trials* (deterministic join
// order); a stray spawn is unaudited interleaving that no replay
// harness covers.
use std::thread;

pub fn fan_out(jobs: Vec<Job>) -> Vec<thread::JoinHandle<u64>> {
    jobs.into_iter()
        .map(|job| thread::spawn(move || job.run())) //~ D10
        .collect()
}

pub fn shell_out(cmd: &mut std::process::Command) -> std::io::Result<std::process::Child> {
    cmd.spawn() //~ D10
}
