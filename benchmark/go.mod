module parcube/benchmark

go 1.22

require parcube v0.0.0

replace parcube => ../
