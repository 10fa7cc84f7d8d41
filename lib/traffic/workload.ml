module Rng = Ppdc_prelude.Rng
module Fat_tree = Ppdc_topology.Fat_tree

type rate_mix = {
  light_share : float;
  light_range : float * float;
  medium_share : float;
  medium_range : float * float;
  heavy_range : float * float;
}

let facebook_mix =
  {
    light_share = 0.25;
    light_range = (0.0, 3000.0);
    medium_share = 0.70;
    medium_range = (3000.0, 7000.0);
    heavy_range = (7000.0, 10000.0);
  }

let sample_rate rng mix =
  let bucket = Rng.float rng 1.0 in
  let lo, hi =
    if bucket < mix.light_share then mix.light_range
    else if bucket < mix.light_share +. mix.medium_share then mix.medium_range
    else mix.heavy_range
  in
  Rng.uniform rng ~lo ~hi

let coast_of_index i = if i mod 2 = 0 then Flow.East else Flow.West

let generate_on_fat_tree ~rng ~l ft =
  if l < 0 then invalid_arg "Workload.generate_on_fat_tree: negative l";
  let num_racks = Fat_tree.num_racks ft in
  let sample_rack () = Rng.int rng num_racks in
  (* Coast follows the source pod: jobs of one region land in one half of
     the data center, so the diurnal offset moves the traffic hotspot
     across the fabric over the day (the effect the paper's time-zone
     model is after). *)
  let west_from_pod = (ft.Fat_tree.k + 1) / 2 in
  Array.init l (fun i ->
      let src_rack = sample_rack () in
      let src_host = Rng.pick rng (Fat_tree.hosts_of_rack ft src_rack) in
      let dst_rack =
        if Rng.float rng 1.0 < 0.8 || num_racks = 1 then src_rack
        else begin
          (* A fresh uniform draw, rejecting the source rack. *)
          let rec other () =
            let r = sample_rack () in
            if r = src_rack then other () else r
          in
          other ()
        end
      in
      let dst_host = Rng.pick rng (Fat_tree.hosts_of_rack ft dst_rack) in
      let coast =
        if Fat_tree.pod_of_host ft src_host < west_from_pod then Flow.East
        else Flow.West
      in
      Flow.make ~id:i ~src_host ~dst_host
        ~base_rate:(sample_rate rng facebook_mix) ~coast)

let generate_on_hosts ~rng ~l ~hosts () =
  if l < 0 then invalid_arg "Workload.generate_on_hosts: negative l";
  if Array.length hosts = 0 then
    invalid_arg "Workload.generate_on_hosts: no hosts";
  Array.init l (fun i ->
      Flow.make ~id:i ~src_host:(Rng.pick rng hosts)
        ~dst_host:(Rng.pick rng hosts)
        ~base_rate:(sample_rate rng facebook_mix) ~coast:(coast_of_index i))

let redraw_rates ~rng flows =
  Array.map (fun (_ : Flow.t) -> sample_rate rng facebook_mix) flows
