package machine

// KernelOf exposes kernelOf to the external test package, which can
// import the steer policies it selects kernels for.
var KernelOf = kernelOf
