use sf_gpusim::{CpuModel, DeviceSpec};
use sf_model::ModelConfig;
use sf_opgraph::builder::StepGraph;
use sf_opgraph::profile::{step_time, ModuleProfile, Table1};

fn main() {
    let g = StepGraph::reference(&ModelConfig::paper(), 3);
    println!("total ops: {}", g.ops.len());
    let dev = DeviceSpec::a100();
    let t = Table1::compute(&g, &dev, CpuModel::healthy());
    println!("{t:#?}");
    let p = ModuleProfile::compute(&g, &dev);
    println!("{p:#?}");
    let st = step_time(&g, &dev, CpuModel::healthy(), false);
    println!("A100 eager: {st:?}");
    let sh = step_time(&g, &DeviceSpec::h100(), CpuModel::healthy(), false);
    println!("H100 eager: {sh:?}");
    // count projection gemms
    let proj = g
        .ops
        .iter()
        .filter(|o| matches!(o.kind, sf_opgraph::OpKind::ProjectionGemm))
        .count();
    println!("projection gemms: {proj}");
    let ew = g
        .ops
        .iter()
        .filter(|o| matches!(o.kind, sf_opgraph::OpKind::Elementwise))
        .count();
    println!("elementwise: {ew}");
}
