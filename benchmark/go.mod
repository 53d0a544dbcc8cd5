module dpfs/benchmark

go 1.22

require dpfs v0.0.0

replace dpfs => ../
