type t = {
  private_write : Sim.Time.t;
  cow_break : Sim.Time.t;
  noise_rsd : float;
}

let default = { private_write = Sim.Time.ns 400; cow_break = Sim.Time.us 5.5; noise_rsd = 0.08 }

let write_cost t rng kind =
  let base =
    match kind with
    | Address_space.Private_write -> t.private_write
    | Address_space.Cow_break -> t.cow_break
  in
  Sim.Time.mul base (Sim.Rng.lognormal_noise rng ~rsd:t.noise_rsd)
