module pagen/benchmark

go 1.22

require pagen v0.0.0

replace pagen => ../
