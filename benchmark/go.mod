// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the pipeline's internal packages through the
// replace below, which the "repro/" import-path prefix permits.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
