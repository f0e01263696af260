//! End-to-end run (`--trace 0`): times the workload through the library's
//! top-level entry points only, checks every output, and prints the
//! end-to-end metrics.

use paperbench::{
    cell_metrics, cell_rows, emit, extra_rows, prepare, repeat_passes, run_cells_pass,
    run_stream_pass, stream_metrics, stream_rows, Args, Tally, WorkDir, Workload,
};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) if !args.trace => args,
        Ok(_) => fail("this binary runs --trace 0; paperbench-trace runs --trace 1"),
        Err(e) => fail(&e.to_string()),
    };
    let correct = match run(&args) {
        Ok(correct) => correct,
        Err(e) => fail(&e.to_string()),
    };
    std::process::exit(if correct { 0 } else { 1 });
}

fn fail(message: &str) -> ! {
    eprintln!("paperbench: {message}");
    std::process::exit(2);
}

fn run(args: &Args) -> ldp_common::Result<bool> {
    let prepared = prepare(args.workload, args.seed)?;
    let mut tally = Tally::default();
    if args.workload == Workload::CheckpointedStream {
        let dir = WorkDir::create(args.workload, args.seed)?;
        let mut reference = Vec::new();
        let mut passes = Vec::new();
        let walls = repeat_passes(args.seconds, 2, || {
            passes.push(run_stream_pass(
                &prepared.specs,
                dir.path(),
                &mut reference,
                &mut tally,
            ));
        });
        let metrics = stream_metrics(prepared.setup_s, &walls, &passes)?;
        let ops = passes.iter().map(|p| p.epoch_secs.len()).sum();
        let mut extra = extra_rows(&tally, ops);
        extra.extend(stream_rows(&passes));
        Ok(emit(args, &tally, &metrics, &extra))
    } else {
        let mut reference = Vec::new();
        let mut passes = Vec::new();
        let walls = repeat_passes(args.seconds, 2, || {
            passes.push(run_cells_pass(&prepared.cells, &mut reference, &mut tally));
        });
        let metrics = cell_metrics(prepared.setup_s, &prepared.cells, &walls, &passes)?;
        let ops = passes.iter().map(|p| p.iter().flatten().count()).sum();
        let mut extra = extra_rows(&tally, ops);
        extra.extend(cell_rows(&prepared.cells, &passes));
        Ok(emit(args, &tally, &metrics, &extra))
    }
}
