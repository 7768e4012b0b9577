//! L005 good fixture: scheme-conforming names, and a dynamic name (left
//! to the runtime validator).

pub fn instrument(reg: &lumen6_obs::MetricsRegistry, len: u8) {
    let _c = reg.counter("detect.parallel.batches_sent");
    let _g = reg.gauge("trace.codec.buffer_depth");
    let _h = reg.histogram("detect.parallel.worker_wall_us");
    let _t = reg.stage("detect.session.flush_us");
    // Dynamic names can't be checked at lint time; validate() covers them.
    let _d = reg.counter(&format!("detect.multi.l{len}.runs_opened"));
}
