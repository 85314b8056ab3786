type child_req = { line : int; from_s : Msi.t; to_s : Msi.t }
type child_resp = { line : int; to_s : Msi.t; dirty : bool }

type parent_msg =
  | Upgrade_resp of { line : int; to_s : Msi.t }
  | Downgrade_req of { line : int; to_s : Msi.t }
