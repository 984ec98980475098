//! Bring-up probe: prints the compiled block structure of a workload.
use clp_compiler::{compile, CompileOptions};
use clp_core::cli::Flags;

fn main() {
    let mut flags = Flags::from_env("probe_blocks");
    if let Some(flag) = flags.next_flag() {
        flags.unknown(&flag);
    }
    let pos = flags.positionals(1);
    let w = flags.workload(pos.first().map_or("conv", String::as_str));
    let edge = compile(&w.program, &CompileOptions::default()).expect("compiles");
    println!("{}: {} blocks", w.name, edge.len());
    for (addr, b) in edge.iter() {
        let exits: Vec<String> = b
            .exits()
            .iter()
            .map(|e| format!("{:?}->{:?}", e.kind, e.target.map(|t| format!("{t:#x}"))))
            .collect();
        println!("  {addr:#07x}: {:>3} instrs, exits {exits:?}", b.len());
    }
}
